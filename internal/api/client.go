package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"prever/internal/chain"
)

// Client is the typed HTTP client for a PReVer server. The remote
// benchmark and the multi-process harness both drive servers through
// it, so failures surface as the same chain sentinels a local Shard
// returns: errors.Is(err, chain.ErrPoolFull) works either way.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server base URL ("http://127.0.0.1:9473"). The
// underlying http.Client reuses connections, so one Client per load
// generator connection models one persistent session.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// do runs one round trip and decodes the response into out. Non-2xx
// responses decode into *WireError, which unwraps to the chain sentinel
// behind its code.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encode %s: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("api: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var we WireError
		if json.Unmarshal(data, &we) == nil && we.Code != "" {
			return &we
		}
		return fmt.Errorf("api: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s: %w", path, err)
	}
	return nil
}

// Submit commits one transaction and returns its ID. A resubmission of
// an already-committed transaction returns the submitted ID together
// with chain.ErrDuplicate — a success with a flag, filter it with
// errors.Is before treating the error as failure.
func (c *Client) Submit(tx Tx) (string, error) {
	var resp SubmitResponse
	if err := c.do(http.MethodPost, "/submit", SubmitRequest{Tx: tx}, &resp); err != nil {
		return tx.ID, err
	}
	return resp.TxID, nil
}

// SubmitBatch commits transactions in order and returns per-transaction
// results in input order. The error covers the transport only; check
// each BatchResult's Code for per-transaction failures.
func (c *Client) SubmitBatch(txs []Tx) ([]BatchResult, error) {
	var resp BatchResponse
	if err := c.do(http.MethodPost, "/submit-batch", BatchRequest{Txs: txs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(txs) {
		return nil, fmt.Errorf("api: submit-batch returned %d results for %d txs", len(resp.Results), len(txs))
	}
	return resp.Results, nil
}

// SubmitPrivate writes a value into a private data collection.
func (c *Client) SubmitPrivate(collection, key string, value []byte) (string, error) {
	var resp SubmitResponse
	req := PrivateSubmitRequest{Collection: collection, Key: key, Value: value}
	if err := c.do(http.MethodPost, "/submit-private", req, &resp); err != nil {
		return "", err
	}
	return resp.TxID, nil
}

// Get reads a key's current value from its home shard. found false
// means the key is absent (deleted or never written), not an error.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	var resp GetResponse
	if err := c.do(http.MethodGet, "/get?key="+url.QueryEscape(key), nil, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// Stats fetches the unified statistics document.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(http.MethodGet, "/stats", nil, &resp)
	return resp, err
}

// Health checks liveness.
func (c *Client) Health() (HealthResponse, error) {
	var resp HealthResponse
	err := c.do(http.MethodGet, "/health", nil, &resp)
	return resp, err
}

// Audit fetches the server's per-peer chain integrity report.
func (c *Client) Audit() (AuditResponse, error) {
	var resp AuditResponse
	err := c.do(http.MethodGet, "/audit", nil, &resp)
	return resp, err
}

// Conf reads the server's boot configuration.
func (c *Client) Conf() (ConfView, error) {
	var resp ConfView
	err := c.do(http.MethodGet, "/conf", nil, &resp)
	return resp, err
}

// IsDuplicate reports whether a submission error is the duplicate ack —
// the transaction had already committed; the caller may treat the
// submission as succeeded.
func IsDuplicate(err error) bool { return errors.Is(err, chain.ErrDuplicate) }
