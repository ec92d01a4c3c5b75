package chain

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
	"prever/internal/wire/wiretest"
)

// seqID is the id SubmitAsync would assign the n-th transaction.
func seqID(n int) string { return fmt.Sprintf("s0-a1b2c3-tx-%d", n) }

// TestPeerSnapshotRestore: the v3 image is the chain and only the chain —
// a peer restored from it holds the same blocks, state and dedup set and
// snapshots to the same bytes — and an image that does not replay to its
// own heads is refused with the peer left exactly as it was.
func TestPeerSnapshotRestore(t *testing.T) {
	src := goldenPeer()
	img, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := newPeer("s0/peer1", []string{"coll"})
	q.applyBatch(encodeAll([]Tx{{ID: "before", Kind: TxPut, Key: "before", Value: []byte("restore")}}))
	before, _ := q.Snapshot()

	bad := map[string][]byte{
		"a flipped body byte": append([]byte(nil), img...),
		"truncated":           img[:len(img)-1],
		"trailing byte":       append(append([]byte(nil), img...), 0),
		"the v2 JSON image":   []byte(`{"format":"prever/chain/peer/v2","blocks":[]}`),
		"empty":               nil,
	}
	bad["a flipped body byte"][len(img)-10] ^= 1
	for name, data := range bad {
		if err := q.Restore(data); err == nil {
			t.Fatalf("%s: restored", name)
		}
		if now, _ := q.Snapshot(); !bytes.Equal(now, before) {
			t.Fatalf("%s: refused, but the peer changed", name)
		}
		if v, err := q.Get("before"); err != nil || string(v) != "restore" {
			t.Fatalf("%s: refused, but state changed: %q, %v", name, v, err)
		}
	}

	if err := q.Restore(img); err != nil {
		t.Fatal(err)
	}
	if now, _ := q.Snapshot(); !bytes.Equal(now, img) {
		t.Fatal("a restored peer snapshots to different bytes")
	}
	if _, err := q.Get("before"); err == nil {
		t.Fatal("state from before the restore survived it")
	}
	for _, key := range []string{"once", "left", "k4", "shuffled", "filled", "hash/coll/recipe"} {
		want, werr := src.Get(key)
		if got, err := q.Get(key); err != werr || !bytes.Equal(got, want) {
			t.Fatalf("%s = %q, %v; the source peer has %q, %v", key, got, err, want, werr)
		}
	}
	// Private values live off-chain: the hash is restored, the value is not.
	if _, err := q.GetPrivate("coll", "recipe"); err == nil {
		t.Fatal("a private value came back from a chain image")
	}
	// The dedup set is rebuilt from the bodies: range ids and odd ones.
	height := q.Height()
	q.applyBatch(encodeAll([]Tx{
		{ID: seqID(7), Kind: TxPut, Key: "dup", Value: []byte("x")},
		{ID: seqID(231), Kind: TxPut, Key: "dup", Value: []byte("x")},
		{ID: "a-01", Kind: TxPut, Key: "dup", Value: []byte("x")},
		{ID: "s0-a1b2c3-ptx-2", Kind: TxPut, Key: "dup", Value: []byte("x")},
	}))
	if q.Height() != height {
		t.Fatal("a restored peer applied ids its chain already holds")
	}
}

// TestDuplicateDroppedAfterManyCommits: the exactly-once filter has no
// window. An id — one SubmitAsync assigned and one a client chose — that
// comes back after a million other commits is dropped by every peer, and
// the peers still hold one chain. Driven through the applier directly: it
// is a function of the executed sequence, not of wall-clock time.
func TestDuplicateDroppedAfterManyCommits(t *testing.T) {
	others := 1_000_000
	if raceEnabled || testing.Short() {
		others = 50_000
	}
	peers := []*Peer{newPeer("p0", nil), newPeer("p1", nil), newPeer("p2", nil), newPeer("p3", nil)}
	apply := func(txs []Tx) {
		ops := encodeAll(txs)
		for _, p := range peers {
			if n := p.applyBatch(ops); n != 0 {
				t.Fatalf("%d undecodable", n)
			}
		}
	}
	first := []Tx{
		{ID: seqID(1), Kind: TxPut, Key: "assigned", Value: []byte("first")},
		{ID: "client-chosen", Kind: TxPut, Key: "chosen", Value: []byte("first")},
	}
	apply(first)
	batch := make([]Tx, 0, 1000)
	for n := 2; n < others+2; n++ {
		batch = append(batch, Tx{ID: seqID(n), Kind: TxDelete, Key: "k"})
		if len(batch) == cap(batch) {
			apply(batch)
			batch = batch[:0]
		}
	}
	apply(batch)
	height := peers[0].Height()
	retry := []Tx{
		{ID: seqID(1), Kind: TxPut, Key: "assigned", Value: []byte("again")},
		{ID: "client-chosen", Kind: TxPut, Key: "chosen", Value: []byte("again")},
	}
	apply(retry) // all duplicates: no block
	apply(append(retry, Tx{ID: seqID(others + 2), Kind: TxPut, Key: "fresh", Value: []byte("v")}))
	_, tip, _, _ := peers[0].Verify()
	for _, p := range peers {
		h, tp, bad, err := p.Verify()
		if h != height+1 || tp != tip || bad != -1 {
			t.Fatalf("%s: height %d (want %d), tip %x (want %x), bad block %d: %v", p.ID(), h, height+1, tp, tip, bad, err)
		}
		if n := p.heads[height].Txs; n != 1 {
			t.Fatalf("%s: the block after the retry holds %d txs, want the fresh one only", p.ID(), n)
		}
		for _, key := range []string{"assigned", "chosen"} {
			if v, err := p.Get(key); err != nil || string(v) != "first" {
				t.Fatalf("%s: %s = %q, %v after the retry", p.ID(), key, v, err)
			}
		}
		// A million ids in sequence are one range, not a million entries.
		if sp := p.applied.ranges["s0-a1b2c3-tx"]; len(*sp) != 1 || len(p.applied.others) != 1 {
			t.Fatalf("%s: %d ranges, %d whole ids", p.ID(), len(*sp), len(p.applied.others))
		}
	}
}

// TestPeerRetainedPerTx: what a peer keeps per applied transaction is its
// encoded bytes and next to nothing else — no Tx, no map entry, no
// version — and a negligible number of heap objects, so the collector's
// work does not grow with history. Run by `make heap-smoke`.
func TestPeerRetainedPerTx(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the peer's")
	}
	const n, perBlock, keys = 100_000, 64, 1000
	p := newPeer("s0/peer0", nil)
	value := bytes.Repeat([]byte("v"), 64)
	next := 0
	block := func() {
		txs := make([]Tx, perBlock)
		for i := range txs {
			next++
			txs[i] = Tx{ID: seqID(next), Kind: TxPut, Key: fmt.Sprintf("key-%08d", next%keys), Value: value}
		}
		p.applyBatch(encodeAll(txs))
	}
	for next < 2*keys { // every key exists, the scratch buffers have grown
		block()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	from := p.Height()
	for applied := 0; applied < n; applied += perBlock {
		block()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	encoded := 0
	for _, body := range p.bodies[from:] {
		encoded += len(body)
	}
	applied := (p.Height() - from) * perBlock
	bytesGrown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	objsGrown := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%d txs: %d encoded bytes, heap +%d bytes (%.1f per tx beyond the encoding), +%d objects (%.3f per tx)",
		applied, encoded, bytesGrown, float64(bytesGrown-int64(encoded))/float64(applied), objsGrown, float64(objsGrown)/float64(applied))
	if limit := int64(encoded + 64*applied); bytesGrown > limit {
		t.Errorf("heap grew %d bytes over %d txs, limit %d (encoded bytes + 64 per tx)", bytesGrown, applied, limit)
	}
	if limit := int64(applied / 10); objsGrown >= limit {
		t.Errorf("heap grew %d objects over %d txs, limit %d (0.1 per tx)", objsGrown, applied, limit)
	}
	runtime.KeepAlive(p)
}

// TestSubmitPrivateUnstagesOnFailure: SubmitPrivate hands the value to
// the collection's members before it knows whether the hash will be
// ordered. A submission the pool refuses, or the shard fails at Close,
// must take those copies back.
func TestSubmitPrivateUnstagesOnFailure(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:        "s0",
		F:           1,
		Collections: map[string][]string{"coll": {"s0/peer0", "s0/peer1"}},
		Timeout:     5 * time.Second,
		// A tiny pool with a long flush interval: adds pile up un-drained.
		Mempool: mempool.Config{Cap: 4, BatchSize: 64, FlushInterval: time.Minute, MaxInFlight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	staged := func() (n int) {
		for _, p := range s.Peers() {
			p.mu.Lock()
			n += len(p.pendingP)
			p.mu.Unlock()
		}
		return n
	}
	var rejected int
	var pending []<-chan Result
	for i := 0; i < 12; i++ {
		ch := s.SubmitPrivate("coll", fmt.Sprintf("k%d", i), []byte("secret"))
		select {
		case res := <-ch:
			if !errors.Is(res.Err, ErrPoolFull) {
				t.Fatalf("private put %d resolved early with %v", i, res.Err)
			}
			rejected++
		default:
			pending = append(pending, ch)
		}
	}
	if rejected == 0 {
		t.Fatal("no admission rejections despite cap 4")
	}
	if got, want := staged(), 2*len(pending); got != want {
		t.Fatalf("%d values staged after %d rejections, want %d: one per member per queued put", got, rejected, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range pending {
		if res := <-ch; !errors.Is(res.Err, ErrShardClosed) {
			t.Fatalf("pending %d: err = %v", i, res.Err)
		}
	}
	if got := staged(); got != 0 {
		t.Fatalf("%d staged values left after every submission failed", got)
	}
}

// FuzzIDSet: the range set answers what a map of the same ids would, for
// any ids in any order, and keeps its ranges sorted, disjoint and merged.
func FuzzIDSet(f *testing.F) {
	f.Add("s0-tx-1,s0-tx-2,s0-tx-3,s0-tx-2")                                      // in order, a duplicate
	f.Add("a-5,a-3,a-4,a-1,a-2,a-0,a-3")                                          // out of order, joins on both sides
	f.Add("a-1,a-3,a-5,a-7,a-4,a-6,a-2")                                          // gaps that fill
	f.Add("a-01,a-1,a-001,a-00,a-0,007,7")                                        // leading zeros are other ids
	f.Add("a-18446744073709551615,a-18446744073709551614,a-18446744073709551616") // the top of the range and one past it
	f.Add("a-9999999999999999999,a-99999999999999999999,a-1e3,a-+1,a--1")         // 19 and 20 digits, not decimals
	f.Add("-,a-,-5,--5,,-0,a,-")                                                  // bare '-', empty prefix, empty id
	f.Add("a-1,b-1,a-2,b-3,ab-1,a-b-1,a-b-2")                                     // prefixes do not mix
	f.Fuzz(func(t *testing.T, in string) {
		s := newIDSet()
		oracle := make(map[string]bool)
		for _, id := range strings.Split(in, ",") {
			if s.has(id) != oracle[id] {
				t.Fatalf("has(%q) = %v before its add, but the map says present = %v", id, !oracle[id], oracle[id])
			}
			if fresh := s.add(id); fresh == oracle[id] {
				t.Fatalf("add(%q) = %v, but the map says present = %v", id, fresh, oracle[id])
			}
			oracle[id] = true
			if !s.has(id) {
				t.Fatalf("has(%q) = false after its add", id)
			}
		}
		for id := range oracle {
			if !s.has(id) || s.add(id) {
				t.Fatalf("%q was added and is not in the set", id)
			}
		}
		points := uint64(len(s.others))
		for prefix, sp := range s.ranges {
			for i, r := range *sp {
				if r.lo > r.hi || (i > 0 && (*sp)[i-1].hi >= r.lo-1) {
					t.Fatalf("prefix %q: ranges %v are not sorted, disjoint and merged", prefix, *sp)
				}
				points += r.hi - r.lo + 1
			}
		}
		if points != uint64(len(oracle)) {
			t.Fatalf("the set holds %d ids, the map %d", points, len(oracle))
		}
	})
}

// FuzzPeerRestore: a peer image arrives from disk or from another
// replica's state transfer. Restore must never panic, never allocate
// beyond a multiple of the image, leave the peer untouched when it
// refuses, and accept only an image that is exactly what the restored
// peer would snapshot.
func FuzzPeerRestore(f *testing.F) {
	img, _ := goldenPeer().Snapshot()
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add(append(append([]byte(nil), img...), 0))
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	empty, _ := newPeer("e", nil).Snapshot()
	f.Add(empty)
	f.Add(append(empty[:len(empty)-1:len(empty)-1], 0xff, 0xff, 0xff, 0xff, 0x0f)) // a block count far beyond the input
	small := newPeer("s", nil)
	many := make([]Tx, 500)
	for i := range many {
		many[i] = Tx{Kind: TxPut, Key: string(rune('a' + i))}
	}
	small.applyBatch(encodeAll(many)) // the most decoded state per image byte
	dense, _ := small.Snapshot()
	f.Add(dense)
	f.Add([]byte(nil))
	f.Add([]byte(`{"format":"prever/chain/peer/v2","blocks":[]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		p := newPeer("s0/peer0", []string{"coll"})
		p.applyBatch(encodeAll([]Tx{{ID: "before", Kind: TxPut, Key: "before", Value: []byte("restore")}}))
		before, _ := p.Snapshot()
		var err error
		if got, limit := wiretest.AllocBytes(func() { err = p.Restore(b) }), uint64(64*len(b)+8192); got > limit {
			t.Fatalf("restoring %d bytes allocated %d (limit %d)", len(b), got, limit)
		}
		now, _ := p.Snapshot()
		if err != nil {
			if !bytes.Equal(now, before) {
				t.Fatal("Restore refused the image and changed the peer")
			}
			return
		}
		if !bytes.Equal(now, b) {
			t.Fatalf("accepted %x, which snapshots back as %x", b, now)
		}
		if _, _, bad, err := p.Verify(); bad != -1 {
			t.Fatalf("accepted an image whose block %d does not verify: %v", bad, err)
		}
		if bad, err := VerifyBlocks(p.Blocks()); bad != -1 {
			t.Fatalf("accepted an image whose block %d does not materialise clean: %v", bad, err)
		}
	})
}
