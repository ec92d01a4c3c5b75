package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"prever/internal/chain"
	"prever/internal/wire"
	"prever/internal/wire/wiretest"
)

// frameTxs is the batch the goldens pin: one transaction of each wire
// kind, with and without a client id.
func frameTxs() []chain.Tx {
	return []chain.Tx{
		{ID: "c-1", Kind: chain.TxPut, Key: "k", Value: []byte("v")},
		{Kind: chain.TxPutOnce, Key: "once", Value: []byte("first")},
		{ID: "c-2", Kind: chain.TxDelete, Key: "k"},
	}
}

func TestBatchFrameGolden(t *testing.T) {
	txs := frameTxs()
	want := wiretest.Golden(t, "testdata/batch.hex", appendBatch(nil, txs))
	encs, err := checkBatch(want)
	if err != nil || len(encs) != len(txs) {
		t.Fatalf("golden bytes check as %d txs, %v", len(encs), err)
	}
	for i := range txs {
		if got, err := chain.DecodeTx(encs[i]); err != nil || !reflect.DeepEqual(got, txs[i]) {
			t.Fatalf("golden tx %d decodes to %+v, %v", i, got, err)
		}
	}
}

// sentinelMsg is a chain error with the message a test chooses.
type sentinelMsg struct {
	sentinel error
	msg      string
}

func (e sentinelMsg) Error() string { return e.msg }
func (e sentinelMsg) Unwrap() error { return e.sentinel }

func TestResultsFrameGolden(t *testing.T) {
	results := []chain.Result{
		{TxID: "api-0123456789ab-tx-1"},
		{TxID: "c-1", Err: sentinelMsg{chain.ErrDuplicate, "dup"}},
		{TxID: "big", Err: sentinelMsg{chain.ErrTxTooLarge, "large"}},
	}
	want := []BatchResult{
		{TxID: "api-0123456789ab-tx-1"},
		{TxID: "c-1", Duplicate: true, Code: CodeDuplicate, Error: "dup"},
		{TxID: "big", Code: CodeTxTooLarge, Error: "large"},
	}
	golden := wiretest.Golden(t, "testdata/results.hex", appendResults(nil, results))
	if !bytes.Equal(golden, frameResults(nil, want)) {
		t.Fatalf("the chain's results and the wire's frame differently")
	}
	if got, err := decodeResults(golden, len(want)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("golden bytes decode to %+v, %v", got, err)
	}
}

// frameResults frames wire results as a reply, codes and messages as
// they are: what a server of any version may send.
func frameResults(b []byte, results []BatchResult) []byte {
	b = binary.AppendUvarint(b, uint64(len(results)))
	for _, r := range results {
		b = appendEntry(b, r.Code, r.TxID, r.Error)
	}
	return b
}

// decodeBatch is the request frame decoded into chain transactions, each
// held to the wire rules as a Tx: the reading checkBatch must agree with
// (FuzzBatchRequest). The server never runs it.
func decodeBatch(body []byte) ([]chain.Tx, error) {
	r := wire.NewReader(body)
	n := r.Count(minFramedTx)
	switch {
	case !r.OK():
		return nil, errors.New("bad count")
	case n == 0:
		return nil, errors.New("empty batch")
	case n > MaxBatchTxs:
		return nil, errors.New("over MaxBatchTxs")
	}
	txs := make([]chain.Tx, n)
	for i := range txs {
		enc := r.Bytes()
		if !r.OK() {
			return nil, errors.New("overrun")
		}
		tx, err := chain.DecodeTx(enc)
		if err != nil {
			return nil, err
		}
		if err := checkDecoded(&tx); err != nil {
			return nil, err
		}
		txs[i] = tx
	}
	if !r.Done() {
		return nil, errors.New("trailing bytes")
	}
	return txs, nil
}

// checkDecoded is checkTx for a decoded transaction.
func checkDecoded(tx *chain.Tx) error {
	if _, ok := kindName(tx.Kind); !ok {
		return errors.New("not a wire kind")
	}
	if tx.Collection != "" || tx.XID != "" || tx.ValueHash != ([32]byte{}) || len(tx.Writes) != 0 {
		return errors.New("not wire fields")
	}
	return checkFields(tx.Kind, tx.ID, tx.Key, tx.Value)
}

// put64s is the benchmark's request: n puts of a 64-byte value, ids
// assigned by the server.
func put64s(n int) []chain.Tx {
	txs := make([]chain.Tx, n)
	for i := range txs {
		txs[i] = chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("key-%08d", i), Value: bytes.Repeat([]byte("v"), 64)}
	}
	return txs
}

// TestResultsPassUnknownCodes: a code this client does not define still
// decodes, as a failure that maps to no sentinel. The server has acted on
// the batch by then, so refusing the reply would report committed
// transactions as failed.
func TestResultsPassUnknownCodes(t *testing.T) {
	want := []BatchResult{{TxID: "x", Code: "teapot", Error: "short and stout"}}
	got, err := decodeResults(frameResults(nil, want), 1)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a reply with an unknown code decodes to %+v, %v", got, err)
	}
	if we := (&WireError{Code: got[0].Code}); errors.Unwrap(we) != nil {
		t.Fatalf("code %q maps to sentinel %v", got[0].Code, errors.Unwrap(we))
	}
}

// TestDecodeBatchAllocs: the server checks a batch where it sits and
// allocates one slice of views into the body for it, nothing per
// transaction.
func TestDecodeBatchAllocs(t *testing.T) {
	const n = 64
	body := appendBatch(nil, put64s(n))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := checkBatch(body); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("checking a batch of %d puts allocates %.0f times, want <= 1", n, allocs)
	}
}

// TestDecodeBatchRefuses: what the frame decoder refuses, and that a
// count the body cannot hold sizes nothing.
func TestDecodeBatchRefuses(t *testing.T) {
	good := appendBatch(nil, frameTxs())
	one := func(tx chain.Tx) []byte { return appendBatch(nil, []chain.Tx{tx}) }
	cases := map[string][]byte{
		"empty body":         nil,
		"count 0":            {0},
		"padded count":       append([]byte{0x83, 0x00}, good[1:]...),
		"truncated":          good[:len(good)-1],
		"trailing byte":      append(append([]byte{}, good...), 0),
		"JSON":               []byte(`{"txs":[{"kind":"put","key":"k","value":"dg=="}]}`),
		"4096 claimed":       append(binary.AppendUvarint(nil, MaxBatchTxs), good[1:]...),
		"over MaxBatchTxs":   append(binary.AppendUvarint(nil, MaxBatchTxs+1), make([]byte, (MaxBatchTxs+1)*minFramedTx)...),
		"private put":        one(chain.Tx{Kind: chain.TxPrivatePut, Collection: "c", Key: "k", ValueHash: chain.HashValue([]byte("s"))}),
		"cross prepare":      one(chain.Tx{Kind: chain.TxCrossPrepare, XID: "x", Writes: []chain.Tx{{Kind: chain.TxPut, Key: "k", Value: []byte("v")}}}),
		"kind 0":             one(chain.Tx{Key: "k", Value: []byte("v")}),
		"put without value":  one(chain.Tx{Kind: chain.TxPut, Key: "k"}),
		"delete with value":  one(chain.Tx{Kind: chain.TxDelete, Key: "k", Value: []byte("v")}),
		"missing key":        one(chain.Tx{Kind: chain.TxPut, Value: []byte("v")}),
		"oversized key":      one(chain.Tx{Kind: chain.TxPut, Key: strings.Repeat("k", MaxKeyBytes+1), Value: []byte("v")}),
		"oversized id":       one(chain.Tx{ID: strings.Repeat("i", MaxKeyBytes+1), Kind: chain.TxPut, Key: "k", Value: []byte("v")}),
		"xid on a put":       one(chain.Tx{Kind: chain.TxPut, Key: "k", Value: []byte("v"), XID: "x"}),
		"a tx of zero bytes": {1, 0},
	}
	for name, body := range cases {
		if txs, err := checkBatch(body); err == nil || txs != nil {
			t.Errorf("%s: accepted %d txs", name, len(txs))
		}
	}
	claim := cases["4096 claimed"]
	if n := wiretest.AllocBytes(func() { _, _ = checkBatch(claim) }); n >= MaxBatchTxs {
		t.Fatalf("a %d-byte body claiming %d txs allocated %d bytes before it was refused", len(claim), MaxBatchTxs, n)
	}
	if _, err := checkBatch(cases["JSON"]); err == nil || !strings.Contains(err.Error(), "count | (len | tx)*") {
		t.Fatalf("a JSON body is refused with %v, which does not name the frame", err)
	}
}

// allocCeiling bounds what decoding an n-byte frame may allocate: a
// slice element per smallest framed entry, and copies of the bytes.
func allocCeiling(n int, elem uintptr, minEntry int) uint64 {
	return uint64(n/minEntry)*uint64(elem) + 2*uint64(n) + 512
}

// FuzzBatchRequest: POST /submit-batch bodies are the one place arbitrary
// outside bytes become chain transactions in bulk. The check never panics
// and never sizes an allocation from a count the body cannot hold. It
// accepts exactly the bodies that decodeBatch, which decodes every
// transaction and holds it to the wire rules, accepts, and hands back
// each transaction's bytes as they sit in the body, which are what
// AppendTx writes for the decoded transaction. (What the chain admits
// from those bytes, the id it mints spliced in, is chain.FuzzViewTx's
// to check.) `go test` runs the seed corpus; `make fuzz-smoke` mutates
// it.
func FuzzBatchRequest(f *testing.F) {
	good := appendBatch(nil, frameTxs())
	one := func(tx chain.Tx) []byte { return appendBatch(nil, []chain.Tx{tx}) }
	for _, body := range [][]byte{
		good,
		appendBatch(nil, put64s(16)),
		one(chain.Tx{Kind: chain.TxPutOnce, Key: "k", Value: []byte("v")}),
		one(chain.Tx{Kind: chain.TxCrossPrepare, XID: "x", Writes: []chain.Tx{{Kind: chain.TxPut, Key: "k", Value: []byte("v")}}}),
		one(chain.Tx{Kind: chain.TxPrivatePut, Collection: "c", Key: "k", ValueHash: chain.HashValue([]byte("s"))}),
		one(chain.Tx{Kind: chain.TxPut, Key: "k"}),
		one(chain.Tx{Kind: chain.TxDelete, Key: "k", Value: []byte("v")}),
		one(chain.Tx{Kind: chain.TxPut, Key: strings.Repeat("k", MaxKeyBytes+1), Value: []byte("v")}),
		{0},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0),
		append(binary.AppendUvarint(nil, MaxBatchTxs), good[1:]...),
		[]byte(`{"txs":[{"kind":"put","key":"k","value":"dg=="}]}`),
		nil,
		// Caller ids, one in the form the shard mints, and ones it has
		// not minted yet.
		appendBatch(nil, []chain.Tx{
			{ID: "caller", Kind: chain.TxPut, Key: "a", Value: []byte("1")},
			{ID: "fuzz-0123456789ab-tx-1", Kind: chain.TxPut, Key: "b", Value: []byte("2")},
			{ID: "fuzz-0123456789ab-ptx-99", Kind: chain.TxDelete, Key: "c"},
			{Kind: chain.TxPut, Key: "d", Value: []byte("4")},
		}),
		// The longest key and id the wire takes, and one byte past each.
		one(chain.Tx{ID: strings.Repeat("i", MaxKeyBytes), Kind: chain.TxPut, Key: strings.Repeat("k", MaxKeyBytes), Value: []byte("v")}),
		one(chain.Tx{ID: strings.Repeat("i", MaxKeyBytes+1), Kind: chain.TxPut, Key: "k", Value: []byte("v")}),
		// Deletes and put-once beside puts, with and without ids.
		appendBatch(nil, []chain.Tx{
			{Kind: chain.TxDelete, Key: "a"},
			{ID: "d-1", Kind: chain.TxDelete, Key: "b"},
			{Kind: chain.TxPutOnce, Key: "a", Value: []byte("first")},
			{ID: "o-1", Kind: chain.TxPutOnce, Key: "c", Value: bytes.Repeat([]byte("v"), 200)},
		}),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		encs, err := checkBatch(body)
		if n := wiretest.AllocBytes(func() { _, _ = checkBatch(body) }); n > allocCeiling(len(body), unsafe.Sizeof([]byte(nil)), minFramedTx) {
			t.Fatalf("checking %d bytes allocated %d", len(body), n)
		}
		txs, oracleErr := decodeBatch(body)
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("check says %v, decoding says %v", err, oracleErr)
		}
		if err != nil {
			if encs != nil {
				t.Fatalf("rejected body still returned %d txs", len(encs))
			}
			return
		}
		if len(encs) != len(txs) {
			t.Fatalf("check returned %d txs, decoding %d", len(encs), len(txs))
		}
		for i := range txs {
			if want := chain.AppendTx(nil, &txs[i]); !bytes.Equal(encs[i], want) {
				t.Fatalf("tx %d is %x in the body, but decodes to %+v", i, encs[i], txs[i])
			}
		}
	})
}

// FuzzBatchResults: a submit-batch reply is where the client trusts the
// server's bytes. The decoder never panics or sizes an allocation from a
// count the reply cannot hold; whatever it accepts has the count the
// client asked for, an error exactly where a code is set, and re-encodes
// to the same bytes.
func FuzzBatchResults(f *testing.F) {
	results := []BatchResult{
		{TxID: "api-0123456789ab-tx-1"},
		{TxID: "c-1", Duplicate: true, Code: CodeDuplicate, Error: "dup"},
		{TxID: "big", Code: CodeTxTooLarge, Error: "large"},
		{TxID: "p", Code: CodePoolFull, Error: "full"},
	}
	good := frameResults(nil, results)
	f.Add(good, uint16(len(results)))
	f.Add(good, uint16(len(results)+1))
	f.Add(good[:len(good)-1], uint16(len(results)))
	f.Add(append(append([]byte{}, good...), 0), uint16(len(results)))
	f.Add(frameResults(nil, []BatchResult{{TxID: "x", Code: "teapot", Error: "?"}}), uint16(1))
	f.Add(frameResults(nil, []BatchResult{{TxID: "x", Code: CodeInvalid}}), uint16(1))
	f.Add(frameResults(nil, []BatchResult{{TxID: "x", Error: "no code"}}), uint16(1))
	f.Add(binary.AppendUvarint(nil, 60000), uint16(60000))
	f.Add([]byte(`{"results":[]}`), uint16(0))
	f.Fuzz(func(t *testing.T, body []byte, want uint16) {
		got, err := decodeResults(body, int(want))
		if n := wiretest.AllocBytes(func() { _, _ = decodeResults(body, int(want)) }); n > allocCeiling(len(body), unsafe.Sizeof(BatchResult{}), 3) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("rejected reply still returned %d results", len(got))
			}
			return
		}
		if len(got) != int(want) {
			t.Fatalf("accepted %d results for %d txs", len(got), want)
		}
		for i, r := range got {
			if (r.Code == "") != (r.Error == "") || r.Duplicate != (r.Code == CodeDuplicate) {
				t.Fatalf("result %d: %+v", i, r)
			}
		}
		if again := frameResults(nil, got); !bytes.Equal(again, body) {
			t.Fatalf("accepted %x, which re-encodes to %x", body, again)
		}
	})
}

// postBatch posts raw bytes to /submit-batch, as a client other than
// Client would, and returns the status and the decoded WireError.
func postBatch(t *testing.T, client *Client, body []byte) (int, WireError) {
	t.Helper()
	resp, err := http.Post(clientBase(client)+"/submit-batch", frameType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var we WireError
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
			t.Fatalf("HTTP %d without a WireError body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, we
}

func submitted(t *testing.T, client *Client) int64 {
	t.Helper()
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Total.Submitted
}

// TestDeclaredLengthSizesNothing: a Content-Length the body does not
// back is a 400, and the server does not allocate for it before the
// bytes arrive.
func TestDeclaredLengthSizesNothing(t *testing.T) {
	_, srv := serve(t, chain.ShardConfig{MaxTxBytes: 2048}) // a body limit of about 8 MiB
	body := appendBatch(nil, frameTxs())
	var rec *httptest.ResponseRecorder
	n := wiretest.AllocBytes(func() {
		// What net/http's server reads from a body that ends early.
		short := io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF))
		req := httptest.NewRequest(http.MethodPost, "/submit-batch", short)
		req.ContentLength = srv.batchBody
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a %d-byte body declared as %d bytes: HTTP %d, want 400", len(body), srv.batchBody, rec.Code)
	}
	if n >= 1<<20 {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes", len(body), srv.batchBody, n)
	}
}

// postDeclared sends a /submit-batch request whose Content-Length claims
// declared bytes, then only body and the end of the stream, and returns
// the status of the reply. net/http's client will not send such a
// request, so it goes over a raw connection.
func postDeclared(t *testing.T, client *Client, body []byte, declared int64) int {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(clientBase(client), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	head := fmt.Sprintf("POST /submit-batch HTTP/1.1\r\nHost: prever\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", frameType, declared)
	if _, err := conn.Write(append([]byte(head), body...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

// TestBatchFrameOverWire: a body that is not a well-formed batch frame is
// a 400 invalid, and none of its transactions is admitted.
func TestBatchFrameOverWire(t *testing.T) {
	client, srv := serve(t, chain.ShardConfig{MaxTxBytes: 64}) // a body limit small enough to cross
	good := appendBatch(nil, frameTxs())
	over := make([]byte, srv.batchBody+1)
	copy(over, good)
	for name, body := range map[string][]byte{
		"JSON":          []byte(`{"txs":[{"kind":"put","key":"k","value":"dg=="}]}`),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte{}, good...), 0),
		"over limit":    over,
		"private put":   appendBatch(nil, []chain.Tx{{Kind: chain.TxPrivatePut, Collection: "c", Key: "k", ValueHash: chain.HashValue([]byte("s"))}}),
	} {
		status, we := postBatch(t, client, body)
		if status != http.StatusBadRequest || we.Code != CodeInvalid {
			t.Fatalf("%s: HTTP %d %+v, want 400 %s", name, status, we, CodeInvalid)
		}
		if name == "JSON" && !strings.Contains(we.Message, frameLayout) {
			t.Fatalf("a JSON body is refused with %q, which does not name the binary frame", we.Message)
		}
		if n := submitted(t, client); n != 0 {
			t.Fatalf("%s: %d transactions admitted from a refused body", name, n)
		}
	}
	if status := postDeclared(t, client, good, srv.batchBody); status != http.StatusBadRequest {
		t.Fatalf("a %d-byte body declared at the limit: HTTP %d, want 400", len(good), status)
	}
	if n := submitted(t, client); n != 0 {
		t.Fatalf("%d transactions admitted from a body shorter than its Content-Length", n)
	}
	if status, we := postBatch(t, client, good); status != http.StatusOK {
		t.Fatalf("the well-formed frame: HTTP %d %+v", status, we)
	}
	if n := submitted(t, client); n != int64(len(frameTxs())) {
		t.Fatalf("submitted = %d after the well-formed frame, want %d", n, len(frameTxs()))
	}
}

// TestBatchResultsOverWire: per-transaction outcomes cross the binary
// reply intact — a duplicate is flagged and keeps its id, an oversized
// transaction fails alone with tx-too-large.
func TestBatchResultsOverWire(t *testing.T) {
	// The 213-byte put of TestTxTooLargeOverWire fits; one more byte does not.
	client, _ := serve(t, chain.ShardConfig{MaxTxBytes: 213})
	fit := Tx{ID: "fit", Kind: KindPut, Key: "k", Value: bytes.Repeat([]byte("x"), 200)}
	big := Tx{ID: "big", Kind: KindPut, Key: "k", Value: bytes.Repeat([]byte("x"), 201)}
	first, err := client.SubmitBatch([]Tx{fit})
	if err != nil || first[0].Code != "" || first[0].TxID != "fit" {
		t.Fatalf("first submission: %+v, %v", first, err)
	}
	results, err := client.SubmitBatch([]Tx{fit, big, {Kind: KindDelete, Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.Duplicate || r.Code != CodeDuplicate || r.TxID != "fit" || r.Error == "" {
		t.Fatalf("resubmitted tx: %+v, want a flagged duplicate", r)
	}
	if r := results[1]; r.Duplicate || r.Code != CodeTxTooLarge || r.TxID != "big" || r.Error == "" {
		t.Fatalf("oversized tx: %+v, want %s", r, CodeTxTooLarge)
	}
	if r := results[2]; r.Code != "" || r.Error != "" || !strings.HasPrefix(r.TxID, "api-") {
		t.Fatalf("delete beside them: %+v, want success with an assigned id", r)
	}
	var we *WireError
	if _, err := client.SubmitBatch([]Tx{{Kind: "upsert", Key: "k", Value: []byte("v")}}); !errors.As(err, &we) || we.Code != CodeInvalid {
		t.Fatalf("unknown kind: %v, want %s", err, CodeInvalid)
	}
}
