package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prever/internal/chain"
)

// Server serves the wire API over a Sharded chain. It holds no state of
// its own beyond the start time and what it read from the shards'
// configurations when it was built — every answer is computed from the
// chain, so N servers over N chains need no coordination.
type Server struct {
	chain *chain.Sharded
	start time.Time
	// conf is GET /conf's answer: the first shard's configuration.
	// prever-server builds every shard from the same flags.
	conf ConfView
	// singleBody bounds one-transaction JSON request bodies: the encoded
	// value (base64 inflates by 4/3) plus headroom for the envelope.
	singleBody int64
	// batchBody bounds a batch frame: MaxBatchTxs transactions of the
	// largest MaxTxBytes among the shards, and their length prefixes.
	batchBody int64
}

// NewServer wraps a sharded chain in the HTTP API. It reads the shards'
// configurations once.
func NewServer(c *chain.Sharded) *Server {
	shards := c.Shards()
	var maxTx int64
	for _, sh := range shards {
		maxTx = max(maxTx, int64(sh.Config().MaxTxBytes))
	}
	return &Server{
		chain:      c,
		start:      time.Now(),
		conf:       viewOf(shards[0].Config()),
		singleBody: maxTx*2 + 64<<10,
		batchBody:  MaxBatchTxs*(maxTx+binary.MaxVarintLen64) + binary.MaxVarintLen64,
	}
}

// Handler returns the route table. Method routing is strict: a GET on a
// POST route is 405 from the mux, an unknown path 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("POST /submit-batch", s.handleSubmitBatch)
	mux.HandleFunc("POST /submit-private", s.handleSubmitPrivate)
	mux.HandleFunc("GET /get", s.handleGet)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /health", s.handleHealth)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.HandleFunc("GET /conf", s.handleConfGet)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code, msg string) {
	writeJSON(w, statusOf(code), &WireError{Code: code, Message: msg})
}

// writeSubmitErr classifies a submission failure into its wire code and
// HTTP status.
func writeSubmitErr(w http.ResponseWriter, err error) {
	writeErr(w, codeOf(err), err.Error())
}

// decode reads a strict JSON body: unknown fields, trailing garbage and
// oversized bodies are validation errors. The size limit is generous —
// per-transaction bounds are enforced semantically (ShardConfig.MaxTxBytes
// → 413), this one only stops a runaway request body.
func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decode(w, r, &req, s.singleBody); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	tx, err := req.Tx.ToChain()
	if err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	res := <-s.chain.SubmitAsync(tx)
	if res.Err != nil {
		writeSubmitErr(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{TxID: res.TxID})
}

// presizeBody is the largest declared body length readBody allocates for
// before the bytes arrive: ten times a 64-transaction batch of 64-byte
// values.
const presizeBody = 64 << 10

// readBody reads a request body whole, refusing more than limit bytes. A
// declared length up to presizeBody sizes the buffer once: growing it
// from io.ReadAll's 512 bytes cost as much as decoding the batch. A
// longer one is not trusted to size anything, so the buffer grows only
// as bytes arrive.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n > 0 && n <= presizeBody {
		b := make([]byte, n)
		_, err := io.ReadFull(body, b)
		return b, err
	}
	return io.ReadAll(body)
}

// handleSubmitBatch serves the binary batch route (frame.go): the body's
// transactions are checked in place and go to the chain as sub-slices of
// it, which copies each once, into the mempool; the results go back as
// one reply frame in input order.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, s.batchBody)
	if err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	txs, err := checkBatch(body)
	if err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	out := appendResults(make([]byte, 0, 1+48*len(txs)), s.chain.SubmitEncoded(txs))
	w.Header().Set("Content-Type", frameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
}

func (s *Server) handleSubmitPrivate(w http.ResponseWriter, r *http.Request) {
	var req PrivateSubmitRequest
	if err := decode(w, r, &req, s.singleBody); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	res := <-s.chain.SubmitPrivate(req.Collection, req.Key, req.Value)
	if res.Err != nil {
		writeSubmitErr(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{TxID: res.TxID})
}

// handleGet reads a key from its home shard's world state. The durable
// smoke test and kill-recover harness use it to assert every acked write
// is still readable after a crash-restart.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, CodeInvalid, "missing key parameter")
		return
	}
	if len(key) > MaxKeyBytes {
		writeErr(w, CodeInvalid, fmt.Sprintf("key is %d bytes (limit %d)", len(key), MaxKeyBytes))
		return
	}
	peer := s.chain.ShardFor(key).Peers()[0]
	val, err := peer.Get(key)
	if err != nil {
		writeJSON(w, http.StatusOK, GetResponse{Key: key, Found: false})
		return
	}
	writeJSON(w, http.StatusOK, GetResponse{Key: key, Value: val, Found: true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        make(map[string]chain.Stats),
	}
	for _, sh := range s.chain.Shards() {
		st := sh.Stats()
		resp.Shards[sh.Name] = st
		resp.Total.Merge(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok"}
	for _, sh := range s.chain.Shards() {
		resp.Shards = append(resp.Shards, sh.Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	resp := AuditResponse{Clean: true, Converged: true}
	for _, sh := range s.chain.Shards() {
		audit := ShardAudit{Name: sh.Name, Clean: true, BadBlock: -1, Converged: true}
		var tip [32]byte
		for i, p := range sh.Peers() {
			height, t, bad, err := p.Verify()
			audit.Heights = append(audit.Heights, height)
			if bad != -1 && audit.Clean {
				audit.Clean = false
				audit.BadBlock = bad
				audit.Error = err.Error()
			}
			if i == 0 {
				tip = t
			} else if t != tip || height != audit.Heights[0] {
				audit.Converged = false
			}
		}
		resp.Clean = resp.Clean && audit.Clean
		resp.Converged = resp.Converged && audit.Converged
		resp.Shards = append(resp.Shards, audit)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleConfGet reports the configuration the server was built with.
// There is no POST /conf: a server's configuration is fixed when it is
// built.
func (s *Server) handleConfGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.conf)
}
