package chain

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"prever/internal/leaktest"
	"prever/internal/netsim"
	"prever/internal/store"
)

func newShard(t testing.TB, name string, collections map[string][]string) (*netsim.Network, *Shard) {
	t.Helper()
	return newShardWith(t, ShardConfig{Name: name, F: 1, Collections: collections, Timeout: 5 * time.Second})
}

// newShardWith builds a shard from cfg on a network of its own.
func newShardWith(t testing.TB, cfg ShardConfig) (*netsim.Network, *Shard) {
	t.Helper()
	// Registered before the Close cleanups so (LIFO) it verifies after
	// the shard and network have shut down. Close is idempotent, so
	// tests that close explicitly are fine.
	t.Cleanup(leaktest.Check(t))
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return net, s
}

// waitHeight waits for every peer to reach at least h blocks.
func waitHeight(t *testing.T, s *Shard, h int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range s.Peers() {
		for time.Now().Before(deadline) && p.Height() < h {
			time.Sleep(time.Millisecond)
		}
		if p.Height() < h {
			t.Fatalf("peer %s height %d < %d", p.ID(), p.Height(), h)
		}
	}
}

func TestShardConfigValidation(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	if _, err := NewShard(net, ShardConfig{Name: "s", F: 0}); err == nil {
		t.Fatal("f=0 accepted")
	}
}

func TestPutCommitsOnAllPeers(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	if err := submitWait(s, Tx{Kind: TxPut, Key: "a", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	waitHeight(t, s, 1)
	for _, p := range s.Peers() {
		v, err := p.Get("a")
		if err != nil || string(v) != "1" {
			t.Fatalf("peer %s: a = %q, %v", p.ID(), v, err)
		}
	}
}

func TestDeleteTx(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	_ = submitWait(s, Tx{Kind: TxPut, Key: "a", Value: []byte("1")})
	_ = submitWait(s, Tx{Kind: TxDelete, Key: "a"})
	waitHeight(t, s, 2)
	for _, p := range s.Peers() {
		if _, err := p.Get("a"); err != store.ErrNotFound {
			t.Fatalf("peer %s still has deleted key: %v", p.ID(), err)
		}
	}
}

func TestChainsAreIdenticalAcrossPeers(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	for i := 0; i < 10; i++ {
		if err := submitWait(s, Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	waitHeight(t, s, 10)
	ref := s.Peers()[0].Blocks()
	for _, p := range s.Peers()[1:] {
		blocks := p.Blocks()
		if len(blocks) != len(ref) {
			t.Fatalf("peer %s has %d blocks, ref %d", p.ID(), len(blocks), len(ref))
		}
		for i := range ref {
			if blocks[i].Hash != ref[i].Hash {
				t.Fatalf("peer %s block %d hash differs", p.ID(), i)
			}
		}
	}
}

func TestVerifyBlocksCleanAndTampered(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	for i := 0; i < 5; i++ {
		_ = submitWait(s, Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
	}
	waitHeight(t, s, 5)
	blocks := s.Peers()[0].Blocks()
	if bad, err := VerifyBlocks(blocks); bad != -1 {
		t.Fatalf("clean chain failed verification at %d: %v", bad, err)
	}
	// Tamper with a transaction value.
	blocks[2].Txs[0].Value = []byte("rewritten")
	if bad, _ := VerifyBlocks(blocks); bad != 2 {
		t.Fatalf("tampered block not detected: bad = %d", bad)
	}
	// Rewriting the root breaks the block hash; rewriting both breaks the
	// chain link.
	blocks[2].TxRoot = txRoot(blocks[2].Txs)
	if bad, _ := VerifyBlocks(blocks); bad != 2 {
		t.Fatal("root-fixed tamper not detected")
	}
	blocks[2].Hash = blockHash(&blocks[2])
	if bad, _ := VerifyBlocks(blocks); bad != 3 {
		t.Fatal("fully-relinked tamper not detected at the next block")
	}
	// The in-place audit reads the stored bytes: the export above was a
	// copy, so the peer is still clean, until its own body is rewritten.
	p := s.Peers()[0]
	if height, _, bad, err := p.Verify(); height != 5 || bad != -1 {
		t.Fatalf("Verify on an untouched peer: %d blocks, bad block %d: %v", height, bad, err)
	}
	p.bodies[2][len(p.bodies[2])-1] ^= 1
	if _, _, bad, _ := p.Verify(); bad != 2 {
		t.Fatalf("rewritten body not detected in place: bad = %d", bad)
	}
}

func TestTxInclusionProof(t *testing.T) {
	_, s := newShard(t, "s0", nil)
	_ = submitWait(s, Tx{Kind: TxPut, Key: "k", Value: []byte("v")})
	waitHeight(t, s, 1)
	p := s.Peers()[0]
	proof, tx, err := p.ProveTx(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk := p.Blocks()[0]
	if err := VerifyTxProof(proof, tx, blk); err != nil {
		t.Fatalf("tx proof failed: %v", err)
	}
	tx.Value = []byte("forged")
	if err := VerifyTxProof(proof, tx, blk); err == nil {
		t.Fatal("forged tx proof verified")
	}
	if _, _, err := p.ProveTx(99, 0); err == nil {
		t.Fatal("out-of-range height accepted")
	}
	if _, _, err := p.ProveTx(0, 99); err == nil {
		t.Fatal("out-of-range tx index accepted")
	}
}

func TestPrivateCollectionVisibility(t *testing.T) {
	members := map[string][]string{
		"collAB": {"s0/peer0", "s0/peer1"},
	}
	_, s := newShard(t, "s0", members)
	secret := []byte("manufacturing-process-secret")
	if err := (<-s.SubmitPrivate("collAB", "recipe", secret)).Err; err != nil {
		t.Fatal(err)
	}
	waitHeight(t, s, 1)
	peers := s.Peers()
	// Members see the value.
	for _, p := range peers[:2] {
		v, err := p.GetPrivate("collAB", "recipe")
		if err != nil || !bytes.Equal(v, secret) {
			t.Fatalf("member %s: %q, %v", p.ID(), v, err)
		}
	}
	// Non-members cannot read it.
	for _, p := range peers[2:] {
		if _, err := p.GetPrivate("collAB", "recipe"); err == nil {
			t.Fatalf("non-member %s read private data", p.ID())
		}
	}
	// Everyone sees the on-chain hash and it matches.
	wantHash := HashValue(secret)
	for _, p := range peers {
		h, err := p.Get("hash/collAB/recipe")
		if err != nil || !bytes.Equal(h, wantHash[:]) {
			t.Fatalf("peer %s on-chain hash mismatch: %v", p.ID(), err)
		}
	}
}

func TestPrivateValueWithWrongHashRejected(t *testing.T) {
	members := map[string][]string{"coll": {"s0/peer0"}}
	_, s := newShard(t, "s0", members)
	// Stage a value that does not match the on-chain hash.
	tx := Tx{ID: "evil-tx", Kind: TxPrivatePut, Collection: "coll", Key: "k", ValueHash: HashValue([]byte("real"))}
	s.Peers()[0].StagePrivateValue("evil-tx", []byte("fake"))
	if err := submitWait(s, tx); err != nil {
		t.Fatal(err)
	}
	waitHeight(t, s, 1)
	if _, err := s.Peers()[0].GetPrivate("coll", "k"); err == nil {
		t.Fatal("hash-mismatched private value stored")
	}
}

func newSharded(t *testing.T, nShards int) *Sharded {
	t.Helper()
	t.Cleanup(leaktest.Check(t))
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	var shards []*Shard
	for i := 0; i < nShards; i++ {
		s, err := NewShard(net, ShardConfig{Name: fmt.Sprintf("sh%d", i), F: 1, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, s)
	}
	c, err := NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestShardedRouting(t *testing.T) {
	c := newSharded(t, 2)
	if err := (<-c.SubmitAsync(Tx{Kind: TxPut, Key: "alpha", Value: []byte("1")})).Err; err != nil {
		t.Fatal(err)
	}
	home := c.ShardFor("alpha")
	deadline := time.Now().Add(5 * time.Second)
	p := home.Peers()[0]
	for time.Now().Before(deadline) && p.Height() == 0 {
		time.Sleep(time.Millisecond)
	}
	if v, err := p.Get("alpha"); err != nil || string(v) != "1" {
		t.Fatalf("home shard read: %q, %v", v, err)
	}
	// Routing must be deterministic.
	if c.ShardFor("alpha") != home {
		t.Fatal("routing not deterministic")
	}
}

func TestCrossShardAtomicWrites(t *testing.T) {
	c := newSharded(t, 2)
	// Find two keys living on different shards.
	var k0, k1 string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.ShardFor(k) == c.Shards()[0] && k0 == "" {
			k0 = k
		}
		if c.ShardFor(k) == c.Shards()[1] && k1 == "" {
			k1 = k
		}
		if k0 != "" && k1 != "" {
			break
		}
	}
	writes := []Tx{
		{Kind: TxPut, Key: k0, Value: []byte("left")},
		{Kind: TxPut, Key: k1, Value: []byte("right")},
	}
	if err := c.SubmitCross(writes); err != nil {
		t.Fatal(err)
	}
	check := func(s *Shard, key, want string) {
		deadline := time.Now().Add(5 * time.Second)
		p := s.Peers()[0]
		for time.Now().Before(deadline) {
			if v, err := p.Get(key); err == nil && string(v) == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("key %s never committed on its shard", key)
	}
	check(c.Shards()[0], k0, "left")
	check(c.Shards()[1], k1, "right")
}

func TestCrossShardEmptyIsNoop(t *testing.T) {
	c := newSharded(t, 2)
	if err := c.SubmitCross(nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

func BenchmarkShardSubmit(b *testing.B) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	s, err := NewShard(net, ShardConfig{Name: "bench", F: 1, Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	val := []byte("value-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := submitWait(s, Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: val}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardPlacement pins where a key lives: shard sha256(key)[0] mod the
// shard count, which data directories written by earlier builds depend
// on; one shard holds every key.
func TestShardPlacement(t *testing.T) {
	shards := []*Shard{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	three, err := NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewSharded(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user%010d", i)
		h := sha256.Sum256([]byte(key))
		if got, want := three.ShardFor(key), shards[int(h[0])%3]; got != want {
			t.Fatalf("%s lives on %s, want %s", key, got.Name, want.Name)
		}
		if one.ShardFor(key) != shards[1] {
			t.Fatalf("%s is not on the only shard", key)
		}
	}
}
