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
	"prever/internal/leaktest"
	"prever/internal/mempool"
	"prever/internal/netsim"
)

// newTestServer boots a one-shard chain behind an httptest server and
// returns a client for it. Collections configure private data access.
func newTestServer(t *testing.T, collections map[string][]string) (*Client, *chain.Sharded) {
	t.Helper()
	client, srv := serve(t, chain.ShardConfig{Collections: collections})
	return client, srv.chain
}

// serve boots a one-shard chain built from cfg (named "api", f = 1 and a
// 10 s timeout) behind an httptest server.
func serve(t *testing.T, cfg chain.ShardConfig) (*Client, *Server) {
	t.Helper()
	// Registered before the Close cleanups so (LIFO) it verifies after
	// every component has shut down.
	t.Cleanup(leaktest.Check(t))
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	cfg.Name, cfg.F, cfg.Timeout = "api", 1, 10*time.Second
	s, err := chain.NewShard(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := chain.NewSharded(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	srv := NewServer(c)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), srv
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
	var resp SubmitResponse
	req := PrivateSubmitRequest{Collection: "secrets", Key: "r1", Value: secret}
	if err := client.doJSON(http.MethodPost, "/submit-private", req, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TxID == "" {
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
	if got := codeOf(fmt.Errorf("wrapped: %w", chain.ErrUnmintedID)); got != CodeInvalid {
		t.Fatalf("codeOf(ErrUnmintedID) = %s: an id the shard never minted is the client's error", got)
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

// TestBatchDedupOverWire: one /submit-batch mixes the three kinds of id a
// client can send. Id-less transactions get distinct minted ids and
// commit; a chosen id that already committed is CodeDuplicate and is not
// proposed; a chosen id twice in the batch is proposed once and acked in
// both slots.
func TestBatchDedupOverWire(t *testing.T) {
	client, sharded := newTestServer(t, nil)
	if _, err := client.Submit(Tx{ID: "committed", Kind: KindPut, Key: "c", Value: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	results, err := client.SubmitBatch([]Tx{
		{Kind: KindPut, Key: "a", Value: []byte("1")},
		{ID: "committed", Kind: KindPut, Key: "c", Value: []byte("again")},
		{ID: "twice", Kind: KindPut, Key: "t", Value: []byte("2")},
		{Kind: KindPut, Key: "b", Value: []byte("3")},
		{ID: "twice", Kind: KindPut, Key: "t", Value: []byte("2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"", CodeDuplicate, "", "", ""} {
		if results[i].Code != want {
			t.Fatalf("tx %d: code %q (%s), want %q", i, results[i].Code, results[i].Error, want)
		}
	}
	if results[0].TxID == "" || results[3].TxID == "" || results[0].TxID == results[3].TxID {
		t.Fatalf("id-less txs got ids %q and %q, want two distinct ones", results[0].TxID, results[3].TxID)
	}
	if results[1].TxID != "committed" || results[2].TxID != "twice" || results[4].TxID != "twice" {
		t.Fatalf("chosen ids came back as %q, %q, %q", results[1].TxID, results[2].TxID, results[4].TxID)
	}
	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	a, b := after.Total, before.Total
	if ops := a.Batches.Ops - b.Batches.Ops; ops != 3 {
		t.Fatalf("%d ops proposed, want 3 (two minted, \"twice\" once)", ops)
	}
	if a.Accepted-b.Accepted != 4 || a.Duplicates-b.Duplicates != 1 ||
		a.Pool.DupPending-b.Pool.DupPending != 1 || a.Pool.DupExecuted-b.Pool.DupExecuted != 1 {
		t.Fatalf("stats moved by %d accepted, %d duplicates, %d pending and %d executed duplicates; want 4, 1, 1, 1",
			a.Accepted-b.Accepted, a.Duplicates-b.Duplicates, a.Pool.DupPending-b.Pool.DupPending, a.Pool.DupExecuted-b.Pool.DupExecuted)
	}
	waitConverged(t, client)
	peer := sharded.Shards()[0].Peers()[0]
	seen := 0
	for _, blk := range peer.Blocks() {
		for _, tx := range blk.Txs {
			if tx.ID == "twice" {
				seen++
			}
		}
	}
	if seen != 1 {
		t.Fatalf("\"twice\" is in the chain %d times, want once", seen)
	}
	if v, err := peer.Get("c"); err != nil || string(v) != "first" {
		t.Fatalf("c = %q, %v after its duplicate", v, err)
	}
}

func TestTxTooLargeOverWire(t *testing.T) {
	client, _ := serve(t, chain.ShardConfig{MaxTxBytes: 512})
	_, err := client.Submit(Tx{Kind: KindPut, Key: "big", Value: bytes.Repeat([]byte("x"), 2048)})
	if !errors.Is(err, chain.ErrTxTooLarge) {
		t.Fatalf("err = %v, want chain.ErrTxTooLarge", err)
	}
	// The bound is on the binary encoding the chain carries, not on the
	// JSON body of the request: kind 1 + id 1+3 + collection 1 + key 1+1 +
	// value 2+200 + hash 1 + xid 1 + writes 1 = 213 bytes for this put
	// (its JSON is over 300). At the limit it commits; one value byte
	// more is a 413.
	client, _ = serve(t, chain.ShardConfig{MaxTxBytes: 213})
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

// TestServersKeepTheirOwnConf: two servers in one process, built with
// different configurations, each enforce and report their own. A server
// built for singleton batches, a pool of one op and 213-byte transactions
// refuses what the default one admits, and neither takes a POST /conf.
func TestServersKeepTheirOwnConf(t *testing.T) {
	small, _ := serve(t, chain.ShardConfig{MaxTxBytes: 213, Mempool: mempool.Config{BatchSize: 1, Cap: 1}})
	large, _ := serve(t, chain.ShardConfig{})
	for _, c := range []struct {
		name   string
		client *Client
		want   ConfView
	}{
		{"small", small, ConfView{BatchSize: 1, FlushInterval: "500µs", MaxInFlight: 4, MempoolCap: 1, MaxTxBytes: 213}},
		{"large", large, ConfView{BatchSize: 64, FlushInterval: "500µs", MaxInFlight: 4, MempoolCap: 4096, MaxTxBytes: 1 << 20}},
	} {
		got, err := c.client.Conf()
		if err != nil || got != c.want {
			t.Fatalf("%s: GET /conf = %+v, %v, want %+v", c.name, got, err, c.want)
		}
		resp, err := http.Post(clientBase(c.client)+"/conf", "application/json", strings.NewReader(`{"mempoolCap":1}`))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s: POST /conf: HTTP %d, want 405", c.name, resp.StatusCode)
		}
	}

	// The 213-byte put of TestTxTooLargeOverWire fits the small server;
	// one more byte fits only the large one.
	big := Tx{Kind: KindPut, Key: "k", Value: bytes.Repeat([]byte("x"), 201)}
	var we *WireError
	if _, err := small.Submit(big); !errors.As(err, &we) || we.Code != CodeTxTooLarge {
		t.Fatalf("small server, 214 bytes: %v, want %s", err, CodeTxTooLarge)
	}
	if _, err := large.Submit(big); err != nil {
		t.Fatalf("large server, 214 bytes: %v", err)
	}

	// One batch of eight: the small pool admits one op and refuses the
	// rest; the large one admits all eight and batches them together.
	txs := make([]Tx, 8)
	for i := range txs {
		txs[i] = Tx{Kind: KindPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	for _, c := range []struct {
		name               string
		client             *Client
		wantFull           int
		minBatch, maxBatch int
	}{
		{"small", small, 7, 1, 1},
		{"large", large, 0, 2, 64},
	} {
		results, err := c.client.SubmitBatch(txs)
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		for i, res := range results {
			switch res.Code {
			case "":
			case CodePoolFull:
				full++
			default:
				t.Fatalf("%s: tx %d: %s (%s)", c.name, i, res.Error, res.Code)
			}
		}
		st, err := c.client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if largest := st.Total.Batches.MaxSize; full != c.wantFull || largest < c.minBatch || largest > c.maxBatch {
			t.Fatalf("%s: %d refused as full, largest batch %d; want %d refused and a largest batch in [%d, %d]",
				c.name, full, largest, c.wantFull, c.minBatch, c.maxBatch)
		}
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
