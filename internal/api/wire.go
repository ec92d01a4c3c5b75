// Package api is the wire surface of a PReVer server: the request and
// response shapes, strict validation, and the mapping between the chain
// submission sentinels and HTTP status codes. The same code is used by
// the server (cmd/prever-server), the multi-process test harness
// (internal/harness) and the repository benchmark's load generator
// (benchmark/), so the three can never drift apart.
//
// The batch route is the machine route: POST /submit-batch takes and
// returns binary frames (frame.go) whose transactions are in the chain's
// own encoding, the bytes that become the Merkle leaf. The single-op and
// read routes, the ones a person types with curl, are JSON:
//
//	POST /submit         one transaction (JSON)  -> SubmitResponse
//	POST /submit-batch   count | (len | tx)*     -> count | (code | id | error)*
//	POST /submit-private private collection put  -> SubmitResponse
//	GET  /get            world-state read        -> GetResponse
//	GET  /stats          unified chain.Stats     -> StatsResponse
//	GET  /health         liveness                -> HealthResponse
//	GET  /audit          per-peer chain audit    -> AuditResponse
//	GET  /conf           boot configuration      -> ConfView
//
// Failures of a whole request are JSON WireError bodies on every route;
// Code round-trips to the chain sentinels (see errors.go) so clients
// branch on errors.Is, never on message strings.
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

// Tx is one transaction as a client writes it. On POST /submit it is
// JSON, Value in base64 (Go's []byte convention); Client.SubmitBatch
// sends it in the chain's binary encoding (frame.go).
type Tx struct {
	// ID is optional; the server assigns one when empty. Clients that
	// retry a timed-out submission should resend the same ID so the
	// server's duplicate suppression collapses the retry.
	ID    string `json:"id,omitempty"`
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// wireKinds is the one table between the wire's kind names and the chain
// kinds they stand for: the JSON Tx and the binary batch frame are both
// checked against it. The chain's other kinds never cross the wire.
var wireKinds = [...]struct {
	name string
	kind chain.TxKind
}{{KindPut, chain.TxPut}, {KindPutOnce, chain.TxPutOnce}, {KindDelete, chain.TxDelete}}

// kindNamed maps a wire kind name to its chain kind.
func kindNamed(name string) (chain.TxKind, error) {
	for _, k := range wireKinds {
		if k.name == name {
			return k.kind, nil
		}
	}
	if name == "" {
		return 0, errors.New("missing kind")
	}
	return 0, fmt.Errorf("unknown kind %q (want %s, %s or %s)", name, KindPut, KindPutOnce, KindDelete)
}

// kindName is kindNamed's inverse; ok is false for a kind the wire does
// not carry.
func kindName(kind chain.TxKind) (name string, ok bool) {
	for _, k := range wireKinds {
		if k.kind == kind {
			return k.name, true
		}
	}
	return "", false
}

// checkFields enforces the wire rules on a transaction of a wire kind: a
// non-empty key within MaxKeyBytes, an id within MaxKeyBytes, a value
// present exactly when the kind writes one. The JSON route passes its
// decoded strings, the batch route views of its body's bytes: one rule
// set for both.
func checkFields[T string | []byte](kind chain.TxKind, id, key T, value []byte) error {
	if kind == chain.TxDelete {
		if len(value) != 0 {
			return errors.New("delete must not carry a value")
		}
	} else if len(value) == 0 {
		name, _ := kindName(kind)
		return fmt.Errorf("%s requires a value", name)
	}
	if len(key) == 0 {
		return errors.New("missing key")
	}
	if len(key) > MaxKeyBytes {
		return fmt.Errorf("key is %d bytes (limit %d)", len(key), MaxKeyBytes)
	}
	if len(id) > MaxKeyBytes {
		return fmt.Errorf("id is %d bytes (limit %d)", len(id), MaxKeyBytes)
	}
	return nil
}

// Validate enforces the wire rules: a recognized kind, a non-empty key
// within MaxKeyBytes, a value present exactly when the kind writes one.
func (t Tx) Validate() error {
	_, err := t.ToChain()
	return err
}

// ToChain converts a wire transaction to the chain type, validating it.
func (t Tx) ToChain() (chain.Tx, error) {
	kind, err := kindNamed(t.Kind)
	if err != nil {
		return chain.Tx{}, err
	}
	if err := checkFields(kind, t.ID, t.Key, t.Value); err != nil {
		return chain.Tx{}, err
	}
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

// BatchRequest is the JSON rendering of a batch. No route reads it: POST
// /submit-batch takes the binary frame (frame.go). Its only user is the
// benchmark's wire leaf (benchmark/layers.go), which still times this
// codec, until ROADMAP item 3g retargets the leaf and deletes it along
// with BatchResponse.
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

// BatchResult is the per-transaction outcome of a batch, what
// Client.SubmitBatch returns from the binary reply. The batch endpoint
// returns HTTP 200 whenever the batch was accepted for processing;
// individual failures are reported here by Code.
type BatchResult struct {
	TxID      string `json:"txId"`
	Duplicate bool   `json:"duplicate,omitempty"`
	// Code is empty on success, otherwise one of the Code* constants (or,
	// from a newer server, a code this package does not define).
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the JSON rendering of a batch's results. Like
// BatchRequest, no route writes it; benchmark/layers.go is its only user
// until ROADMAP item 3g.
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
