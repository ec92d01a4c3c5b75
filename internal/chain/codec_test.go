package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"prever/internal/conf"
	"prever/internal/wire/wiretest"
)

// genTx draws a transaction that exercises the codec's corners: every
// kind, keys that are not UTF-8, an absent, an empty and a filled Value,
// a zero and a non-zero ValueHash, and Writes nested `depth` deep.
func genTx(rng *rand.Rand, id string, depth int) Tx {
	randBytes := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	tx := Tx{
		ID:   id,
		Kind: TxKind(1 + rng.Intn(int(TxPutOnce))),
		Key:  string(randBytes(12)) + "\xff\xfe",
		XID:  string(randBytes(6)),
	}
	switch rng.Intn(3) {
	case 0:
		tx.Value = []byte{}
	case 1:
		tx.Value = randBytes(200)
	}
	if rng.Intn(2) == 0 {
		tx.Collection = "coll" + string(randBytes(3))
		rng.Read(tx.ValueHash[:])
	}
	if depth > 0 {
		for i := rng.Intn(3) + 1; i > 0; i-- {
			tx.Writes = append(tx.Writes, genTx(rng, fmt.Sprintf("%s.%d", id, i), depth-1))
		}
	}
	return tx
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// canonical is tx as a decode returns it: empty Value and Writes are nil.
func canonical(tx Tx) Tx {
	if len(tx.Value) == 0 {
		tx.Value = nil
	}
	var ws []Tx
	for _, w := range tx.Writes {
		ws = append(ws, canonical(w))
	}
	tx.Writes = ws
	return tx
}

func TestTxRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		tx := genTx(rng, fmt.Sprintf("tx-%d", i), rng.Intn(maxWritesDepth+1))
		enc := txBytes(tx)
		got, err := decodeTx(enc)
		if err != nil {
			t.Fatalf("tx %d: decode: %v\n%+v", i, err, tx)
		}
		if want := canonical(tx); !reflect.DeepEqual(got, want) {
			t.Fatalf("tx %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
		if again := txBytes(got); !bytes.Equal(again, enc) {
			t.Fatalf("tx %d: re-encoded to different bytes", i)
		}
	}
	// An empty Value and an absent one are one transaction: one leaf.
	if !bytes.Equal(txBytes(Tx{Kind: TxPut, Key: "k", Value: []byte{}}), txBytes(Tx{Kind: TxPut, Key: "k"})) {
		t.Fatal("empty and absent Value encode differently")
	}
}

// nested returns a transaction whose Writes nest depth deep.
func nested(depth int) Tx {
	tx := Tx{Kind: TxPut, Key: "leaf"}
	for i := 0; i < depth; i++ {
		tx = Tx{Kind: TxCrossPrepare, XID: "x", Writes: []Tx{tx}}
	}
	return tx
}

func TestTxWritesDepthCap(t *testing.T) {
	if _, err := decodeTx(txBytes(nested(maxWritesDepth))); err != nil {
		t.Fatalf("Writes nested to the cap refused: %v", err)
	}
	if _, err := decodeTx(txBytes(nested(maxWritesDepth + 1))); err == nil {
		t.Fatal("Writes nested past the cap decoded")
	}
	// The submit path turns the same transaction away before it can
	// commit and be refused by every peer's decoder.
	_, s := newShard(t, "s0", nil)
	if err := submitWait(s, nested(maxWritesDepth+1)); !errors.Is(err, ErrTxTooDeep) {
		t.Fatalf("submit past the cap: %v, want ErrTxTooDeep", err)
	}
	if err := submitWait(s, nested(maxWritesDepth)); err != nil {
		t.Fatalf("submit at the cap: %v", err)
	}
}

// TestMaxTxBytesBoundary: conf.MaxTxBytes bounds the encoded size, and
// the encoding is the binary one.
func TestMaxTxBytesBoundary(t *testing.T) {
	conf.Reset()
	t.Cleanup(conf.Reset)
	tx := Tx{ID: "at-limit", Kind: TxPut, Key: "k", Value: bytes.Repeat([]byte("v"), 64)}
	conf.Update(func(c *conf.Config) { c.MaxTxBytes = len(txBytes(tx)) })
	_, s := newShard(t, "s0", nil) // the bound is read when the shard is built
	if err := submitWait(s, tx); err != nil {
		t.Fatalf("a transaction of exactly MaxTxBytes: %v", err)
	}
	tx.ID, tx.Value = "past-it!", append(tx.Value, 'v')
	if err := submitWait(s, tx); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("one byte over MaxTxBytes: %v, want ErrTxTooLarge", err)
	}
}

// TestGeneratedTxsGiveIdenticalChains: four peers fed the same generated
// operations — every kind, binary keys — build the same blocks, every
// block's TxRoot re-verifies, and nothing was undecodable.
func TestGeneratedTxsGiveIdenticalChains(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	rng := rand.New(rand.NewSource(16))
	txs := make([]Tx, 100)
	for i := range txs {
		txs[i] = genTx(rng, fmt.Sprintf("g-%d", i), rng.Intn(2))
	}
	for i, res := range s.SubmitBatch(txs) {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	applied := func(p *Peer) (n int) {
		for _, b := range p.Blocks() {
			n += len(b.Txs)
		}
		return n
	}
	for _, p := range s.Peers() {
		p := p
		eventually(t, "peer "+p.ID()+" to apply every tx", func() bool { return applied(p) == len(txs) })
	}
	ref := s.Peers()[0].Blocks()
	if bad, err := VerifyBlocks(ref); err != nil {
		t.Fatalf("block %d: %v", bad, err)
	}
	for _, p := range s.Peers() {
		blocks := p.Blocks()
		if len(blocks) != len(ref) {
			t.Fatalf("peer %s has %d blocks, ref %d", p.ID(), len(blocks), len(ref))
		}
		// The in-place audit and the materialised one see one chain.
		if height, tip, bad, err := p.Verify(); height != len(ref) || tip != ref[len(ref)-1].Hash || bad != -1 {
			t.Fatalf("peer %s: Verify = %d blocks, tip %x, bad block %d: %v", p.ID(), height, tip, bad, err)
		}
		for i := range ref {
			if blocks[i].Hash != ref[i].Hash {
				t.Fatalf("peer %s block %d hash differs", p.ID(), i)
			}
		}
	}
	if n := s.Stats().Undecodable; n != 0 {
		t.Fatalf("Undecodable = %d", n)
	}
}

// TestApplierCountsUndecodable: a committed request that is not a batch
// frame, and a framed op that is not a transaction, are counted on every
// peer instead of vanishing.
func TestApplierCountsUndecodable(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	if err := s.client.Submit([]byte(`pbB1["e30="]`), s.timeout); err != nil {
		t.Fatal(err)
	}
	good := txBytes(Tx{ID: "ok", Kind: TxPut, Key: "k", Value: []byte("v")})
	if err := s.client.SubmitBatch([][]byte{good, []byte(`{"id":"json","kind":1}`)}, s.timeout); err != nil {
		t.Fatal(err)
	}
	eventually(t, "two undecodables per peer", func() bool { return s.Stats().Undecodable == int64(2*len(s.Peers())) })
	if v, err := s.Peers()[0].Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("the decodable op beside the bad one: k = %q, %v", v, err)
	}
}

func TestTxGolden(t *testing.T) {
	tx := Tx{
		ID: "s0-tx-1", Kind: TxCrossPrepare, XID: "x1",
		Writes: []Tx{
			{Kind: TxPut, Key: "k", Value: []byte("v")},
			{Kind: TxPrivatePut, Collection: "c", Key: "p", ValueHash: HashValue([]byte("secret"))},
		},
	}
	want := wiretest.Golden(t, "testdata/tx.hex", txBytes(tx))
	if got, err := decodeTx(want); err != nil || !reflect.DeepEqual(got, tx) {
		t.Fatalf("golden bytes decode to %+v, %v", got, err)
	}
}

// put64 is the benchmark's transaction: a 64-byte put.
func put64() Tx {
	return Tx{ID: "shard0-a1b2c3d4e5f6-tx-123456", Kind: TxPut, Key: "key-00012345", Value: bytes.Repeat([]byte("v"), 64)}
}

// TestDecodeTxAllocs: a put decodes into its ID, its Key and its Value —
// three allocations, none per field.
func TestDecodeTxAllocs(t *testing.T) {
	enc := txBytes(put64())
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeTx(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("decodeTx of a put allocates %.0f times, want <= 3", n)
	}
}

// FuzzDecodeTx: ops reach decodeTx from the consensus log. It must never
// panic, never allocate beyond a multiple of its input, and accept only
// what txBytes writes — so whatever it accepts re-encodes to the same
// bytes, which also rules out trailing input.
func FuzzDecodeTx(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		f.Add(txBytes(genTx(rng, fmt.Sprintf("seed-%d", i), i%3)))
	}
	good := txBytes(put64())
	f.Add(good)
	f.Add(good[:len(good)-1])                   // truncated
	f.Add(append(append([]byte{}, good...), 0)) // trailing byte
	f.Add(txBytes(nested(maxWritesDepth)))
	f.Add(txBytes(nested(maxWritesDepth + 1)))
	f.Add([]byte(nil))
	f.Add([]byte(`{"id":"json","kind":1,"key":"k"}`))                // the form earlier binaries wrote
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // Writes count far beyond the input
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})                   // ID length far beyond the input
	f.Add(append([]byte{1, 0, 0, 0, 0, 32}, make([]byte, 34)...))    // the zero hash spelled out
	f.Add([]byte{1, 0, 0, 0, 0, 3, 1, 2, 3, 0, 0})                   // a 3-byte hash
	f.Fuzz(func(t *testing.T, b []byte) {
		var tx Tx
		var err error
		if got, limit := wiretest.AllocBytes(func() { tx, err = decodeTx(b) }), uint64(64*len(b)+1024); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), got, limit)
		}
		if err != nil {
			if !reflect.DeepEqual(tx, Tx{}) {
				t.Fatalf("refused input still returned %+v", tx)
			}
			return
		}
		if again := txBytes(tx); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes to %x", b, again)
		}
	})
}

func BenchmarkTxCodec(b *testing.B) {
	tx := put64()
	enc := txBytes(tx)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			sinkBytes = txBytes(tx)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			var err error
			if sinkTx, err = decodeTx(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var (
	sinkBytes []byte
	sinkTx    Tx
)
