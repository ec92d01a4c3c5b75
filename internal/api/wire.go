// Package api is the wire surface of a PReVer server: typed JSON
// request/response structs, strict validation, and the mapping between
// the chain submission sentinels and HTTP status codes. The same types
// are used by the server (cmd/prever-server), the multi-process test
// harness (internal/harness) and the repository benchmark's load
// generator (benchmark/), so the three can never drift apart.
//
// The API fronts exactly the batch-first chain surface:
//
//	POST /submit         one transaction        -> SubmitResponse
//	POST /submit-batch   many transactions      -> BatchResponse
//	POST /submit-private private collection put -> SubmitResponse
//	GET  /get            world-state read       -> GetResponse
//	GET  /stats          unified chain.Stats    -> StatsResponse
//	GET  /health         liveness               -> HealthResponse
//	GET  /audit          per-peer chain audit   -> AuditResponse
//	GET  /conf           boot configuration     -> ConfView
//
// Failures are WireError bodies; Code round-trips to the chain
// sentinels (see errors.go) so clients branch on errors.Is, never on
// message strings.
package api

import (
	"errors"
	"fmt"

	"prever/internal/chain"
	"prever/internal/conf"
)

// MaxKeyBytes bounds key and collection names on the wire. Values are
// bounded end-to-end by conf.MaxTxBytes (HTTP 413), keys by this much
// tighter lexical limit (HTTP 400): a key is an index entry replicated
// into every peer's world state, not a payload.
const MaxKeyBytes = 1024

// Wire transaction kinds. Cross-shard phases (prepare/commit/abort) are
// coordinator-internal and deliberately not exposed on the wire.
const (
	KindPut     = "put"
	KindPutOnce = "put-once"
	KindDelete  = "delete"
)

// Tx is one transaction on the wire. Value is base64 in JSON (Go's
// []byte convention).
type Tx struct {
	// ID is optional; the server assigns one when empty. Clients that
	// retry a timed-out submission should resend the same ID so the
	// server's duplicate suppression collapses the retry.
	ID    string `json:"id,omitempty"`
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// Validate enforces the wire rules: a recognized kind, a non-empty key
// within MaxKeyBytes, a value present exactly when the kind writes one.
func (t Tx) Validate() error {
	switch t.Kind {
	case KindPut, KindPutOnce:
		if len(t.Value) == 0 {
			return fmt.Errorf("%s requires a value", t.Kind)
		}
	case KindDelete:
		if len(t.Value) != 0 {
			return errors.New("delete must not carry a value")
		}
	case "":
		return errors.New("missing kind")
	default:
		return fmt.Errorf("unknown kind %q (want %s, %s or %s)", t.Kind, KindPut, KindPutOnce, KindDelete)
	}
	if t.Key == "" {
		return errors.New("missing key")
	}
	if len(t.Key) > MaxKeyBytes {
		return fmt.Errorf("key is %d bytes (limit %d)", len(t.Key), MaxKeyBytes)
	}
	if len(t.ID) > MaxKeyBytes {
		return fmt.Errorf("id is %d bytes (limit %d)", len(t.ID), MaxKeyBytes)
	}
	return nil
}

// ToChain converts a validated wire transaction to the chain type.
func (t Tx) ToChain() (chain.Tx, error) {
	if err := t.Validate(); err != nil {
		return chain.Tx{}, err
	}
	kind := map[string]chain.TxKind{
		KindPut:     chain.TxPut,
		KindPutOnce: chain.TxPutOnce,
		KindDelete:  chain.TxDelete,
	}[t.Kind]
	return chain.Tx{ID: t.ID, Kind: kind, Key: t.Key, Value: t.Value}, nil
}

// SubmitRequest is the body of POST /submit.
type SubmitRequest struct {
	Tx Tx `json:"tx"`
}

// SubmitResponse acknowledges one committed transaction.
type SubmitResponse struct {
	TxID string `json:"txId"`
	// Duplicate is set when the transaction had already committed and
	// this submission was acked without being proposed — a success with
	// a flag, reported with HTTP 200, not an error.
	Duplicate bool `json:"duplicate,omitempty"`
}

// MaxBatchTxs bounds one POST /submit-batch request.
const MaxBatchTxs = 4096

// BatchRequest is the body of POST /submit-batch.
type BatchRequest struct {
	Txs []Tx `json:"txs"`
}

// Validate checks the batch shape and every transaction in it.
func (r BatchRequest) Validate() error {
	if len(r.Txs) == 0 {
		return errors.New("empty batch")
	}
	if len(r.Txs) > MaxBatchTxs {
		return fmt.Errorf("batch of %d txs (limit %d)", len(r.Txs), MaxBatchTxs)
	}
	for i, tx := range r.Txs {
		if err := tx.Validate(); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}

// BatchResult is the per-transaction outcome inside a BatchResponse.
// The batch endpoint returns HTTP 200 whenever the batch was accepted
// for processing; individual failures are reported here by Code.
type BatchResult struct {
	TxID      string `json:"txId"`
	Duplicate bool   `json:"duplicate,omitempty"`
	// Code is empty on success, otherwise one of the Code* constants.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /submit-batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// PrivateSubmitRequest is the body of POST /submit-private: write Value
// under Key in a private data collection — members store the value,
// the public chain carries only its hash.
type PrivateSubmitRequest struct {
	Collection string `json:"collection"`
	Key        string `json:"key"`
	Value      []byte `json:"value"`
}

// Validate enforces the private-put wire rules.
func (r PrivateSubmitRequest) Validate() error {
	if r.Collection == "" {
		return errors.New("missing collection")
	}
	if len(r.Collection) > MaxKeyBytes {
		return fmt.Errorf("collection is %d bytes (limit %d)", len(r.Collection), MaxKeyBytes)
	}
	if r.Key == "" {
		return errors.New("missing key")
	}
	if len(r.Key) > MaxKeyBytes {
		return fmt.Errorf("key is %d bytes (limit %d)", len(r.Key), MaxKeyBytes)
	}
	if len(r.Value) == 0 {
		return errors.New("missing value")
	}
	return nil
}

// GetResponse is the body of GET /get?key=K: the key's current value in
// the home shard's world state. Found false (HTTP 200) means the key is
// absent — deleted or never written — not an error.
type GetResponse struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
	Found bool   `json:"found"`
}

// StatsResponse is the unified statistics document served at GET /stats:
// the same JSON-tagged chain.Stats struct per shard and aggregated, plus
// server uptime. The repository benchmark reads exactly this shape.
type StatsResponse struct {
	UptimeSeconds float64                `json:"uptimeSeconds"`
	Shards        map[string]chain.Stats `json:"shards"`
	Total         chain.Stats            `json:"total"`
}

// HealthResponse is the body of GET /health.
type HealthResponse struct {
	Status string   `json:"status"` // always "ok" when the server answers
	Shards []string `json:"shards"`
}

// ShardAudit is one shard's integrity report inside an AuditResponse.
type ShardAudit struct {
	Name string `json:"name"`
	// Heights is each peer's chain height, in peer order.
	Heights []int `json:"heights"`
	// Clean is true when every peer's chain verifies (hash links and
	// Merkle roots); BadBlock/Error describe the first failure.
	Clean    bool   `json:"clean"`
	BadBlock int    `json:"badBlock"` // -1 when clean
	Error    string `json:"error,omitempty"`
	// Converged is true when all peers are at the same height with the
	// same tip hash. False is not failure — peers apply asynchronously —
	// so pollers retry until true.
	Converged bool `json:"converged"`
}

// AuditResponse is the body of GET /audit: the server walks every
// shard's peers, re-verifies their chains, and reports convergence.
type AuditResponse struct {
	Shards    []ShardAudit `json:"shards"`
	Clean     bool         `json:"clean"`
	Converged bool         `json:"converged"`
}

// ConfView is the wire form of the boot configuration (GET /conf).
// Durations are Go duration strings ("500µs", "1m").
type ConfView struct {
	BatchSize     int    `json:"batchSize"`
	FlushInterval string `json:"flushInterval"`
	MaxInFlight   int    `json:"maxInFlight"`
	MempoolCap    int    `json:"mempoolCap"`
	MaxTxBytes    int    `json:"maxTxBytes"`
}

// ViewOf renders a config snapshot for the wire.
func ViewOf(c conf.Config) ConfView {
	return ConfView{
		BatchSize:     c.BatchSize,
		FlushInterval: c.FlushInterval.String(),
		MaxInFlight:   c.MaxInFlight,
		MempoolCap:    c.MempoolCap,
		MaxTxBytes:    c.MaxTxBytes,
	}
}
