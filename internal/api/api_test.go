package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/leaktest"
	"prever/internal/netsim"
)

// newTestServer boots a one-shard chain behind an httptest server and
// returns a client for it. Collections configure private data access.
func newTestServer(t *testing.T, collections map[string][]string) (*Client, *chain.Sharded) {
	t.Helper()
	// Registered before the Close cleanups so (LIFO) it verifies after
	// every component has shut down.
	t.Cleanup(leaktest.Check(t))
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := chain.NewShard(net, chain.ShardConfig{
		Name:        "api",
		F:           1,
		Collections: collections,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := chain.NewSharded(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ts := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), c
}

func TestSubmitRoundTrip(t *testing.T) {
	client, sharded := newTestServer(t, nil)
	id, err := client.Submit(Tx{Kind: KindPut, Key: "alpha", Value: []byte("1")})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id == "" {
		t.Fatal("submit returned empty tx id")
	}
	// The commit is visible in the chain's world state.
	waitConverged(t, client)
	if v, err := sharded.Shards()[0].Peers()[0].Get("alpha"); err != nil || string(v) != "1" {
		t.Fatalf("state alpha = %q, %v; want \"1\"", v, err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Accepted != 1 || st.Total.Submitted != 1 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 accepted", st.Total)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatal("uptime not reported")
	}
}

func TestSubmitBatchOrderedResults(t *testing.T) {
	client, _ := newTestServer(t, nil)
	const n = 16
	txs := make([]Tx, n)
	for i := range txs {
		txs[i] = Tx{ID: fmt.Sprintf("b-%d", i), Kind: KindPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	results, err := client.SubmitBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Code != "" {
			t.Fatalf("tx %d failed: %s %s", i, r.Code, r.Error)
		}
		if r.TxID != txs[i].ID {
			t.Fatalf("result %d has id %s, want %s (results must keep input order)", i, r.TxID, txs[i].ID)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Accepted != n {
		t.Fatalf("accepted = %d, want %d", st.Total.Accepted, n)
	}
}

func TestSubmitPrivate(t *testing.T) {
	client, sharded := newTestServer(t, map[string][]string{
		"secrets": {"api/peer0", "api/peer1"},
	})
	secret := []byte("the-recipe")
	id, err := client.SubmitPrivate("secrets", "r1", secret)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty tx id")
	}
	waitConverged(t, client)
	peers := sharded.Shards()[0].Peers()
	if v, err := peers[0].GetPrivate("secrets", "r1"); err != nil || !bytes.Equal(v, secret) {
		t.Fatalf("member read = %q, %v", v, err)
	}
	if _, err := peers[3].GetPrivate("secrets", "r1"); err == nil {
		t.Fatal("non-member read the private value")
	}
	if h, err := peers[3].Get("hash/secrets/r1"); err != nil || len(h) != 32 {
		t.Fatalf("public hash = %x, %v", h, err)
	}
}

func TestValidationRejects(t *testing.T) {
	client, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		tx   Tx
	}{
		{"missing kind", Tx{Key: "k", Value: []byte("v")}},
		{"unknown kind", Tx{Kind: "upsert", Key: "k", Value: []byte("v")}},
		{"missing key", Tx{Kind: KindPut, Value: []byte("v")}},
		{"put without value", Tx{Kind: KindPut, Key: "k"}},
		{"delete with value", Tx{Kind: KindDelete, Key: "k", Value: []byte("v")}},
		{"oversized key", Tx{Kind: KindPut, Key: strings.Repeat("k", MaxKeyBytes+1), Value: []byte("v")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Submit(tc.tx)
			var we *WireError
			if !errors.As(err, &we) || we.Code != CodeInvalid {
				t.Fatalf("err = %v, want WireError code %s", err, CodeInvalid)
			}
		})
	}
	// The validated batch endpoint rejects the whole batch on one bad tx.
	_, err := client.SubmitBatch([]Tx{
		{Kind: KindPut, Key: "ok", Value: []byte("v")},
		{Kind: "bogus", Key: "k"},
	})
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeInvalid {
		t.Fatalf("batch err = %v, want WireError code %s", err, CodeInvalid)
	}
	// Strictness: unknown JSON fields are rejected, not ignored.
	resp, err := http.Post(clientBase(client)+"/submit", "application/json",
		strings.NewReader(`{"tx":{"kind":"put","key":"k","value":"dg==","surprise":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

func clientBase(c *Client) string { return c.base }

func TestSentinelRoundTrip(t *testing.T) {
	// Every wire code maps to an HTTP status and back to the sentinel it
	// came from, so remote errors.Is checks behave like local ones.
	for _, tc := range []struct {
		err    error
		code   string
		status int
	}{
		{chain.ErrPoolFull, CodePoolFull, http.StatusTooManyRequests},
		{chain.ErrDuplicate, CodeDuplicate, http.StatusConflict},
		{chain.ErrShardClosed, CodeShardDown, http.StatusServiceUnavailable},
		{chain.ErrTxTooLarge, CodeTxTooLarge, http.StatusRequestEntityTooLarge},
	} {
		if got := codeOf(fmt.Errorf("wrapped: %w", tc.err)); got != tc.code {
			t.Fatalf("codeOf(%v) = %s, want %s", tc.err, got, tc.code)
		}
		if got := statusOf(tc.code); got != tc.status {
			t.Fatalf("statusOf(%s) = %d, want %d", tc.code, got, tc.status)
		}
		we := &WireError{Code: tc.code, Message: "x"}
		if !errors.Is(we, tc.err) {
			t.Fatalf("WireError{%s} does not unwrap to %v", tc.code, tc.err)
		}
	}
	if statusOf(CodeInvalid) != http.StatusBadRequest || statusOf(CodeInternal) != http.StatusInternalServerError {
		t.Fatal("invalid/internal status mapping wrong")
	}
	if got := codeOf(fmt.Errorf("wrapped: %w", chain.ErrTxTooDeep)); got != CodeInvalid {
		t.Fatalf("codeOf(ErrTxTooDeep) = %s: a malformed transaction is the client's error", got)
	}
}

func TestDuplicateAckOverWire(t *testing.T) {
	client, _ := newTestServer(t, nil)
	tx := Tx{ID: "dup-1", Kind: KindPut, Key: "k", Value: []byte("v")}
	if _, err := client.Submit(tx); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	id, err := client.Submit(tx)
	if !errors.Is(err, chain.ErrDuplicate) || !IsDuplicate(err) {
		t.Fatalf("resubmit err = %v, want chain.ErrDuplicate", err)
	}
	if id != "dup-1" {
		t.Fatalf("resubmit returned id %q, want the submitted id", id)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Total.Duplicates)
	}
}

func TestTxTooLargeOverWire(t *testing.T) {
	conf.Reset()
	t.Cleanup(conf.Reset)
	// The bound is read when the shard and the server are built.
	setMax := func(n int) { conf.Update(func(c *conf.Config) { c.MaxTxBytes = n }) }
	setMax(512)
	client, _ := newTestServer(t, nil)
	_, err := client.Submit(Tx{Kind: KindPut, Key: "big", Value: bytes.Repeat([]byte("x"), 2048)})
	if !errors.Is(err, chain.ErrTxTooLarge) {
		t.Fatalf("err = %v, want chain.ErrTxTooLarge", err)
	}
	// The bound is on the binary encoding the chain carries, not on the
	// JSON body of the request: kind 1 + id 1+3 + collection 1 + key 1+1 +
	// value 2+200 + hash 1 + xid 1 + writes 1 = 213 bytes for this put
	// (its JSON is over 300). At the limit it commits; one value byte
	// more is a 413.
	setMax(213)
	client, _ = newTestServer(t, nil)
	if _, err := client.Submit(Tx{ID: "fit", Kind: KindPut, Key: "k", Value: bytes.Repeat([]byte("x"), 200)}); err != nil {
		t.Fatalf("a transaction of exactly MaxTxBytes: %v", err)
	}
	_, err = client.Submit(Tx{ID: "big", Kind: KindPut, Key: "k", Value: bytes.Repeat([]byte("x"), 201)})
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeTxTooLarge {
		t.Fatalf("one byte over MaxTxBytes: %v, want code %q (HTTP 413)", err, CodeTxTooLarge)
	}
}

func TestShardClosedOverWire(t *testing.T) {
	client, sharded := newTestServer(t, nil)
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := client.Submit(Tx{Kind: KindPut, Key: "k", Value: []byte("v")})
	if !errors.Is(err, chain.ErrShardClosed) {
		t.Fatalf("err = %v, want chain.ErrShardClosed", err)
	}
}

func TestAuditConverges(t *testing.T) {
	client, _ := newTestServer(t, nil)
	for i := 0; i < 8; i++ {
		if _, err := client.Submit(Tx{Kind: KindPut, Key: fmt.Sprintf("a%d", i), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	audit := waitConverged(t, client)
	if !audit.Clean {
		t.Fatalf("audit not clean: %+v", audit)
	}
	if len(audit.Shards) != 1 || len(audit.Shards[0].Heights) != 4 {
		t.Fatalf("audit shape: %+v", audit)
	}
}

// waitConverged polls /audit until every peer holds the same verified
// chain (peers apply commits asynchronously).
func waitConverged(t *testing.T, client *Client) AuditResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		audit, err := client.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if audit.Converged && audit.Clean {
			return audit
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers did not converge: %+v", audit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConfIsFixedAtBoot: a server's configuration is what conf held when
// it was built. POST /conf does not exist, and a conf change behind a
// built server — here one that would force singleton batches, a pool of
// one op and a one-byte transaction bound — reaches neither its pool nor
// its size check.
func TestConfIsFixedAtBoot(t *testing.T) {
	conf.Reset()
	t.Cleanup(conf.Reset)
	client, _ := newTestServer(t, nil)
	before, err := client.Conf()
	if err != nil {
		t.Fatal(err)
	}
	if before != ViewOf(conf.Defaults()) {
		t.Fatalf("GET /conf = %+v, want the boot configuration %+v", before, ViewOf(conf.Defaults()))
	}
	resp, err := http.Post(clientBase(client)+"/conf", "application/json", strings.NewReader(`{"mempoolCap":1}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /conf: HTTP %d, want 405", resp.StatusCode)
	}
	if after, err := client.Conf(); err != nil || after != before {
		t.Fatalf("GET /conf after the refused POST = %+v, %v, want %+v", after, err, before)
	}

	conf.Update(func(c *conf.Config) { c.BatchSize, c.MempoolCap, c.MaxTxBytes = 1, 1, 1 })
	txs := make([]Tx, 8)
	for i := range txs {
		txs[i] = Tx{Kind: KindPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	results, err := client.SubmitBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("tx %d after the conf change: %s (%s)", i, res.Error, res.Code)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Batches.MaxSize < 2 || st.Total.Rejected != 0 {
		t.Fatalf("largest batch %d, %d rejected; want a batch of >= 2 and nothing rejected", st.Total.Batches.MaxSize, st.Total.Rejected)
	}
}

func TestMethodAndRouteStrictness(t *testing.T) {
	client, _ := newTestServer(t, nil)
	resp, err := http.Get(clientBase(client) + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit: HTTP %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(clientBase(client) + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /no-such-route: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStatsJSONShape pins the wire names of the unified stats document:
// the repository benchmark (benchmark/) and dashboards key on these.
func TestStatsJSONShape(t *testing.T) {
	client, _ := newTestServer(t, nil)
	if _, err := client.Submit(Tx{Kind: KindPut, Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(clientBase(client) + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	total, ok := doc["total"].(map[string]any)
	if !ok {
		t.Fatalf("no total object in %v", doc)
	}
	for _, key := range []string{"submitted", "accepted", "duplicates", "rejected", "errors", "pool", "batches"} {
		if _, ok := total[key]; !ok {
			t.Fatalf("stats JSON missing %q: %v", key, total)
		}
	}
	if _, ok := doc["shards"].(map[string]any)["api"]; !ok {
		t.Fatalf("stats JSON missing per-shard entry: %v", doc["shards"])
	}
}

// FuzzBatchRequest: POST /submit-batch bodies are the one place arbitrary
// outside bytes become chain transactions. Whatever the handler's own
// decode → Validate → ToChain path accepts respects the wire bounds and
// re-encodes to a body that decodes to the same transactions; nothing
// panics. `go test` runs the seed corpus; `make fuzz-smoke` mutates it.
func FuzzBatchRequest(f *testing.F) {
	limit := int64(MaxBatchTxs) * NewServer(nil).singleBody
	parse := func(body []byte) ([]chain.Tx, error) {
		r := httptest.NewRequest(http.MethodPost, "/submit-batch", bytes.NewReader(body))
		return batchTxs(httptest.NewRecorder(), r, limit)
	}
	// The batches api_test.go submits, accepted and rejected.
	ordered := make([]Tx, 16)
	for i := range ordered {
		ordered[i] = Tx{ID: fmt.Sprintf("b-%d", i), Kind: KindPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	for _, txs := range [][]Tx{
		ordered,
		{{Kind: KindPut, Key: "ok", Value: []byte("v")}, {Kind: "bogus", Key: "k"}},
		{{Kind: KindPutOnce, Key: "k", Value: []byte("v")}, {Kind: KindDelete, Key: "k"}},
		{{Key: "k", Value: []byte("v")}},
		{{Kind: KindPut, Key: "k"}},
		{{Kind: KindDelete, Key: "k", Value: []byte("v")}},
		{{Kind: KindPut, Key: strings.Repeat("k", MaxKeyBytes+1), Value: []byte("v")}},
		{},
	} {
		body, err := json.Marshal(BatchRequest{Txs: txs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"txs":[{"kind":"put","key":"k","value":"dg==","surprise":1}]}`))
	f.Add([]byte(`{"txs":[{"kind":"put","key":"k","value":"dg=="}]} {}`))
	f.Add([]byte(`{"txs":[{"kind":"put","key":"\ud800","value":"dg=="}]}`))
	f.Add([]byte(`{"txs":[{"kind":"delete","key":"k","value":""}]}`))
	f.Add([]byte(`{"txs":null}`))
	f.Add([]byte(nil))

	wireKind := map[chain.TxKind]string{chain.TxPut: KindPut, chain.TxPutOnce: KindPutOnce, chain.TxDelete: KindDelete}
	f.Fuzz(func(t *testing.T, body []byte) {
		txs, err := parse(body)
		if err != nil {
			if txs != nil {
				t.Fatalf("rejected body still returned %d txs", len(txs))
			}
			return
		}
		if len(txs) == 0 || len(txs) > MaxBatchTxs {
			t.Fatalf("accepted a batch of %d txs", len(txs))
		}
		again := BatchRequest{Txs: make([]Tx, len(txs))}
		for i, tx := range txs {
			kind, ok := wireKind[tx.Kind]
			if !ok {
				t.Fatalf("tx %d: kind %v is not a wire kind", i, tx.Kind)
			}
			if tx.Key == "" || len(tx.Key) > MaxKeyBytes || len(tx.ID) > MaxKeyBytes {
				t.Fatalf("tx %d: key of %d bytes, id of %d bytes", i, len(tx.Key), len(tx.ID))
			}
			if (tx.Kind == chain.TxDelete) != (len(tx.Value) == 0) {
				t.Fatalf("tx %d: %s with a value of %d bytes", i, kind, len(tx.Value))
			}
			again.Txs[i] = Tx{ID: tx.ID, Kind: kind, Key: tx.Key, Value: tx.Value}
		}
		body2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		txs2, err := parse(body2)
		if err != nil {
			t.Fatalf("accepted %q, whose re-encoding %q is rejected: %v", body, body2, err)
		}
		if len(txs2) != len(txs) {
			t.Fatalf("accepted %q (%d txs), which re-encodes to %d txs", body, len(txs), len(txs2))
		}
		for i, a := range txs {
			// An empty value and an absent one are the same transaction
			// (chain/codec.go), so Value is compared by content.
			b := txs2[i]
			if a.ID != b.ID || a.Kind != b.Kind || a.Key != b.Key || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("accepted %q, whose tx %d re-encodes to a different transaction:\n%+v\n%+v", body, i, a, b)
			}
		}
	})
}
