package chain_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/wire"
)

// putBody is a /submit-batch body of n puts of a 64-byte value, ids left
// to the server: the benchmark's request.
func putBody(n int) []byte {
	body := binary.AppendUvarint(nil, uint64(n))
	var enc []byte
	for i := 0; i < n; i++ {
		tx := chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("user%010d", i), Value: bytes.Repeat([]byte("v"), 64)}
		enc = chain.AppendTx(enc[:0], &tx)
		body = wire.AppendBytes(body, enc)
	}
	return body
}

// postFrame serves one /submit-batch request for body through h.
func postFrame(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/submit-batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestSubmitFrameAllocs: one /submit-batch submission, from the request
// body to the reply frame, allocates as much for 64 puts as for 16:
// between the body and the pool nothing is allocated per transaction
// (no Tx, no id string per transaction, no re-encode), and the route's
// own costs do not grow with the batch.
func TestSubmitFrameAllocs(t *testing.T) {
	c, stop := chain.NewInstantSharded()
	defer stop()
	h := api.NewServer(c).Handler()
	allocs := func(n int) float64 {
		body := putBody(n)
		return testing.AllocsPerRun(50, func() { postFrame(t, h, body) })
	}
	a16, a64 := allocs(16), allocs(64)
	t.Logf("allocations per submission: %.1f at n=16, %.1f at n=64", a16, a64)
	if a16 != a64 {
		t.Fatalf("%.1f allocations at n=16, %.1f at n=64: something on the route is allocated per transaction", a16, a64)
	}
}

// BenchmarkSubmitFrame: a 64-put /submit-batch body through the body
// check, the admission and the reply frame, into a pool that resolves at
// once: the server's own cost per transaction, consensus left out.
func BenchmarkSubmitFrame(b *testing.B) {
	c, stop := chain.NewInstantSharded()
	defer stop()
	h := api.NewServer(c).Handler()
	const n = 64
	body := putBody(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postFrame(b, h, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tx")
}
