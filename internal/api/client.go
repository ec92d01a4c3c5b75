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

// do runs one round trip: body, when not nil, is sent as contentType,
// and a 2xx reply's body is returned whole. Non-2xx responses decode into
// *WireError, which unwraps to the chain sentinel behind its code.
func (c *Client) do(method, path, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("api: %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		var we WireError
		if json.Unmarshal(data, &we) == nil && we.Code != "" {
			return nil, &we
		}
		return nil, fmt.Errorf("api: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("api: %s: %w", path, err)
	}
	return data, nil
}

// doJSON is do for the JSON routes: in, when not nil, is the request
// body and out receives the reply.
func (c *Client) doJSON(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("api: encode %s: %w", path, err)
		}
	}
	data, err := c.do(method, path, "application/json", body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
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
	if err := c.doJSON(http.MethodPost, "/submit", SubmitRequest{Tx: tx}, &resp); err != nil {
		return tx.ID, err
	}
	return resp.TxID, nil
}

// SubmitBatch commits transactions in order and returns per-transaction
// results in input order. It sends them in the chain's binary encoding
// (frame.go), so a transaction the server would refuse as invalid is
// refused here, with the same CodeInvalid WireError and no round trip.
// The error covers the request as a whole; check each BatchResult's Code
// for per-transaction failures.
func (c *Client) SubmitBatch(txs []Tx) ([]BatchResult, error) {
	ctxs := make([]chain.Tx, len(txs))
	for i, tx := range txs {
		ctx, err := tx.ToChain()
		if err != nil {
			return nil, &WireError{Code: CodeInvalid, Message: fmt.Sprintf("tx %d: %v", i, err)}
		}
		ctxs[i] = ctx
	}
	data, err := c.do(http.MethodPost, "/submit-batch", frameType, appendBatch(nil, ctxs))
	if err != nil {
		return nil, err
	}
	return decodeResults(data, len(txs))
}

// Get reads a key's current value from its home shard. found false
// means the key is absent (deleted or never written), not an error.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	var resp GetResponse
	if err := c.doJSON(http.MethodGet, "/get?key="+url.QueryEscape(key), nil, &resp); err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// Stats fetches the unified statistics document.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.doJSON(http.MethodGet, "/stats", nil, &resp)
	return resp, err
}

// Health checks liveness.
func (c *Client) Health() (HealthResponse, error) {
	var resp HealthResponse
	err := c.doJSON(http.MethodGet, "/health", nil, &resp)
	return resp, err
}

// Audit fetches the server's per-peer chain integrity report.
func (c *Client) Audit() (AuditResponse, error) {
	var resp AuditResponse
	err := c.doJSON(http.MethodGet, "/audit", nil, &resp)
	return resp, err
}

// Conf reads the configuration the server was built with.
func (c *Client) Conf() (ConfView, error) {
	var resp ConfView
	err := c.doJSON(http.MethodGet, "/conf", nil, &resp)
	return resp, err
}

// IsDuplicate reports whether a submission error is the duplicate ack —
// the transaction had already committed; the caller may treat the
// submission as succeeded.
func IsDuplicate(err error) bool { return errors.Is(err, chain.ErrDuplicate) }
