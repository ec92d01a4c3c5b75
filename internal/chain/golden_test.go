package chain

import (
	"fmt"
	"math/rand"
	"testing"

	"prever/internal/store"
	"prever/internal/wire/wiretest"
)

// goldenSequence is a seeded run of batches that meets every branch of
// the applier: overwrites, deletes, put-once on a present and an absent
// key, duplicates within a batch, across batches and as a whole batch
// (which makes no block), ids that are and are not `-<canonical
// decimal>`, arriving out of order, a private put, and cross-shard
// prepares that commit, abort, and commit after the abort.
func goldenSequence() [][]Tx {
	rng := rand.New(rand.NewSource(17))
	val := func() []byte {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		return b
	}
	id := seqID
	var batches [][]Tx
	var puts []Tx
	for i := 1; i <= 40; i++ {
		puts = append(puts, Tx{ID: id(i), Kind: TxPut, Key: fmt.Sprintf("k%d", rng.Intn(16)), Value: val()})
	}
	batches = append(batches, puts)
	batches = append(batches, []Tx{
		puts[3], // a retry that committed twice
		{ID: id(41), Kind: TxDelete, Key: "k3"},
		{ID: id(42), Kind: TxDelete, Key: "never-written"},
		{ID: id(43), Kind: TxPutOnce, Key: "k4", Value: []byte("loses")},
		{ID: id(44), Kind: TxPutOnce, Key: "once", Value: []byte("wins")},
		{ID: id(44), Kind: TxPutOnce, Key: "once", Value: []byte("same id, same batch")},
		{ID: id(45), Kind: TxPutOnce, Key: "once", Value: []byte("second writer")},
		puts[39],
	})
	batches = append(batches, []Tx{puts[0], puts[20], puts[39]}) // every one a duplicate: no block
	batches = append(batches, []Tx{
		{ID: "s0-a1b2c3-ptx-1", Kind: TxPrivatePut, Collection: "coll", Key: "recipe", ValueHash: HashValue([]byte("staged secret"))},
		{ID: "s0-a1b2c3-ptx-2", Kind: TxPrivatePut, Collection: "coll", Key: "unstaged", ValueHash: HashValue([]byte("never staged"))},
		{ID: "s0-a1b2c3-ptx-3", Kind: TxPrivatePut, Collection: "other", Key: "p", ValueHash: HashValue([]byte("not a member"))},
	})
	batches = append(batches, []Tx{
		{ID: id(100), Kind: TxCrossPrepare, XID: "x1", Writes: []Tx{
			{Kind: TxPut, Key: "left", Value: []byte("L")},
			{Kind: TxDelete, Key: "k5"},
			{Kind: TxPutOnce, Key: "once", Value: []byte("third writer")},
		}},
		{ID: id(101), Kind: TxCrossPrepare, XID: "x2", Writes: []Tx{{Kind: TxPut, Key: "aborted", Value: []byte("never")}}},
	})
	batches = append(batches, []Tx{
		{ID: id(102), Kind: TxCrossCommit, XID: "x1"},
		{ID: id(103), Kind: TxCrossAbort, XID: "x2"},
		{ID: id(104), Kind: TxCrossCommit, XID: "x2"},
		{ID: id(105), Kind: TxCrossCommit, XID: "x1"}, // already committed: nothing left to apply
	})
	odd := []string{"", "007", "7", "a-01", "a-1", "-", "a-", "-5", "a--5", "a-18446744073709551615", "a-18446744073709551616", "a-0", "a-00", "tx-١"}
	var oddTxs []Tx
	for round := 0; round < 2; round++ {
		for i, s := range odd {
			oddTxs = append(oddTxs, Tx{ID: s, Kind: TxPut, Key: fmt.Sprintf("odd%d", i), Value: []byte{byte(round)}})
		}
	}
	batches = append(batches, oddTxs)
	var shuffled []Tx
	for _, n := range rng.Perm(30) {
		shuffled = append(shuffled, Tx{ID: id(200 + 2*n), Kind: TxPut, Key: "shuffled", Value: val()})
	}
	batches = append(batches, shuffled)
	var fill []Tx
	for n := 199; n < 262; n++ { // the odd ids fill the gaps; the even ones are duplicates
		fill = append(fill, Tx{ID: id(n), Kind: TxPut, Key: "filled", Value: val()})
	}
	batches = append(batches, fill, fill[10:20])
	return batches
}

// encodeAll is what consensus hands the applier for txs.
func encodeAll(txs []Tx) [][]byte {
	ops := make([][]byte, len(txs))
	for i := range txs {
		ops[i] = txBytes(txs[i])
	}
	return ops
}

// goldenPeer runs goldenSequence through one peer's applier.
func goldenPeer() *Peer {
	p := newPeer("s0/peer0", []string{"coll"})
	p.StagePrivateValue("s0-a1b2c3-ptx-1", []byte("staged secret"))
	for _, b := range goldenSequence() {
		p.applyBatch(encodeAll(b))
	}
	return p
}

// TestGoldenTip: testdata/tip.hex is every block's TxRoot and Hash as the
// parent of the encoded block store computed them over goldenSequence,
// when a peer held []Block, a map of applied ids and a versioned store.
// The store, the streamed root, the id set and the latest-value state
// must rebuild that chain hash for hash, and the same world state.
func TestGoldenTip(t *testing.T) {
	p := goldenPeer()
	var got []byte
	txs := 0
	blocks := p.Blocks()
	for _, b := range blocks {
		got = append(append(got, b.TxRoot[:]...), b.Hash[:]...)
		txs += len(b.Txs)
	}
	wiretest.Golden(t, "testdata/tip.hex", got)
	if len(blocks) != 8 || txs != 132 {
		t.Fatalf("%d blocks, %d txs; the parent built 8 and 132", len(blocks), txs)
	}
	if bad, err := VerifyBlocks(blocks); bad != -1 {
		t.Fatalf("materialised chain: block %d: %v", bad, err)
	}
	height, tip, bad, err := p.Verify()
	if height != len(blocks) || tip != blocks[len(blocks)-1].Hash || bad != -1 || err != nil {
		t.Fatalf("Verify = %d, %x, %d, %v", height, tip, bad, err)
	}
	for key, want := range map[string]string{
		"once": "wins", "left": "L", "odd0": "\x01", "odd1": "\x00", "odd3": "\x00", "odd12": "\x00",
		"k4": "\x8b\x1f\x1a\x89\xab\xc2\x5a\x9c\xfa\x3c\x5e\x13\x9b\xf2\xe8\xff\x24\x23\x87\xd9\x4f\x13\xab\xd0\x46\xda\xe1\xf7\x84\x1a\x55\xa0\xa6\x9e\xb3\xcf\x4c\x86\x03\x7f",
	} {
		if v, err := p.Get(key); err != nil || string(v) != want {
			t.Errorf("%s = %q, %v; want %q", key, v, err, want)
		}
	}
	for _, key := range []string{"k3", "k5", "aborted", "never-written"} {
		if v, err := p.Get(key); err != store.ErrNotFound {
			t.Errorf("%s = %q, %v; want not found", key, v, err)
		}
	}
	if v, err := p.GetPrivate("coll", "recipe"); err != nil || string(v) != "staged secret" {
		t.Errorf("private recipe = %q, %v", v, err)
	}
	if _, err := p.GetPrivate("coll", "unstaged"); err != store.ErrNotFound {
		t.Errorf("a private put nobody staged stored something: %v", err)
	}
	if len(p.pendingP) != 0 || len(p.prepared) != 0 {
		t.Errorf("%d staged values, %d prepared writes left over", len(p.pendingP), len(p.prepared))
	}
}
