package chain

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prever/internal/store"
)

// valueOf is the value of key's version-th write, length n: the stamp
// "key#version;" repeated, so two writes to one key never share a byte
// pattern and a read that mixed them matches neither.
func valueOf(key string, version, n int) []byte {
	stamp := fmt.Sprintf("%s#%d;", key, version)
	return []byte(strings.Repeat(stamp, n/len(stamp)+1)[:n])
}

// wrote records v as one of the values written to key.
func wrote(written map[string]map[string]bool, key string, v []byte) {
	if written[key] == nil {
		written[key] = make(map[string]bool)
	}
	written[key][string(v)] = true
}

// TestReadsDuringApply reads every peer's public state, private state and
// applied ids while a four-peer shard applies blocks of overwrites of the
// same length, new keys, new value lengths, put-once writes, deletes,
// private puts and cross-shard prepares and commits. Every value a reader
// sees is one that was written to that key, whole; an id, once seen
// applied, stays applied; and every peer ends in the same state. Run it
// under -race: the peers' view lock is all that orders these reads
// against the writes.
func TestReadsDuringApply(t *testing.T) {
	const rounds, keys = 12, 8
	members := []string{"rd/peer0", "rd/peer2"}
	_, s := newShard(t, "rd", map[string][]string{"c": members})
	sharded, err := NewSharded(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every value written to each public key (the private puts' hashes
	// under "hash/c/<key>" among them) and to each private key.
	public, private := make(map[string]map[string]bool), make(map[string]map[string]bool)
	type round struct {
		batch   []Tx
		private [2][]byte // key "p<round%2>"'s new value
		cross   []Tx
	}
	rs := make([]round, rounds)
	var ids []string
	for r := range rs {
		n := 24 + 8*(r%3) // a new value length every round
		var batch []Tx
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%d", k)
			for w := 0; w < 2; w++ { // same-length overwrites within the block
				v := valueOf(key, 2*r+w, n)
				batch = append(batch, Tx{Kind: TxPut, Key: key, Value: v})
				wrote(public, key, v)
			}
		}
		fresh := fmt.Sprintf("new%d", r)
		v := valueOf(fresh, 0, 40)
		batch = append(batch, Tx{ID: "chosen-" + fresh, Kind: TxPut, Key: fresh, Value: v})
		wrote(public, fresh, v)
		ids = append(ids, "chosen-"+fresh)
		once := fmt.Sprintf("once%d", r%3)
		v = valueOf(once, r, 32)
		batch = append(batch, Tx{Kind: TxPutOnce, Key: once, Value: v})
		wrote(public, once, v)
		batch = append(batch, Tx{Kind: TxDelete, Key: fmt.Sprintf("k%d", r%keys)})
		rs[r].batch = batch

		pk := fmt.Sprintf("p%d", r%2)
		rs[r].private = [2][]byte{[]byte(pk), valueOf(pk, r, 48)}
		wrote(private, pk, rs[r].private[1])
		h := HashValue(rs[r].private[1])
		wrote(public, "hash/c/"+pk, h[:])

		for k := 0; k < 2; k++ {
			key := fmt.Sprintf("x%d", k)
			v := valueOf(key, r, 56)
			rs[r].cross = append(rs[r].cross, Tx{Kind: TxPut, Key: key, Value: v})
			wrote(public, key, v)
		}
	}
	readKeys := make([]string, 0, len(public))
	for key := range public {
		readKeys = append(readKeys, key)
	}
	privateKeys := []string{"p0", "p1"}
	probe := s.pool.Config().Executed

	var stop atomic.Bool
	var reads atomic.Int64
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			seen := make(map[string]bool)
			fail := func(err error) {
				errs <- err
				stop.Store(true)
			}
			for !stop.Load() {
				for _, p := range s.Peers() {
					key := readKeys[rng.Intn(len(readKeys))]
					v, err := p.Get(key)
					switch {
					case err == nil && !public[key][string(v)]:
						fail(fmt.Errorf("%s read %s = %q, never written", p.ID(), key, v))
						return
					case err != nil && !errors.Is(err, store.ErrNotFound):
						fail(fmt.Errorf("%s read %s: %v", p.ID(), key, err))
						return
					case err == nil:
						reads.Add(1)
					}
					pk := privateKeys[rng.Intn(len(privateKeys))]
					v, err = p.GetPrivate("c", pk)
					member := p.ID() == members[0] || p.ID() == members[1]
					switch {
					case !member && err == nil:
						fail(fmt.Errorf("%s is no member of c and read %s", p.ID(), pk))
						return
					case member && err == nil && !private[pk][string(v)]:
						fail(fmt.Errorf("%s read c/%s = %q, never written", p.ID(), pk, v))
						return
					case member && err != nil && !errors.Is(err, store.ErrNotFound):
						fail(fmt.Errorf("%s read c/%s: %v", p.ID(), pk, err))
						return
					}
				}
				id := ids[rng.Intn(len(ids))]
				if in := probe(id); seen[id] && !in {
					fail(fmt.Errorf("%s was applied and then was not", id))
					return
				} else if in {
					seen[id] = true
				}
			}
		}(int64(w))
	}
	defer func() { // before the shard's cleanups, on any exit
		stop.Store(true)
		wg.Wait()
	}()

	for r := range rs {
		if stop.Load() {
			break
		}
		for _, res := range s.SubmitBatch(rs[r].batch) {
			if res.Err != nil {
				t.Fatalf("round %d: %v", r, res.Err)
			}
		}
		if res := <-s.SubmitPrivate("c", string(rs[r].private[0]), rs[r].private[1]); res.Err != nil {
			t.Fatalf("round %d private: %v", r, res.Err)
		}
		if err := sharded.SubmitCross(rs[r].cross); err != nil {
			t.Fatalf("round %d cross: %v", r, err)
		}
	}
	height := 0
	for _, p := range s.Peers() {
		height = max(height, p.Height())
	}
	waitHeight(t, s, height)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reads.Load() == 0 {
		t.Error("no reader saw a value")
	}

	want := peerState(s.Peers()[0])
	for _, p := range s.Peers()[1:] {
		got := peerState(p)
		if p.ID() != members[1] { // a non-member holds no private state
			if len(got.private) != 0 {
				t.Errorf("%s is no member of c and holds %v", p.ID(), got.private)
			}
			got.private = want.private
		}
		if !got.equal(want) {
			t.Errorf("%s ends in a state unlike %s's", p.ID(), s.Peers()[0].ID())
		}
	}
	if v, err := s.Peers()[0].Get("k0"); err != nil || !bytes.Equal(v, valueOf("k0", 2*rounds-1, 24+8*((rounds-1)%3))) {
		t.Errorf("k0 = %q, %v; want the last round's second write", v, err)
	}
}

// state is a copy of what a peer's view guards.
type state struct {
	public, private map[string]string
	applied         []string
}

func (a state) equal(b state) bool {
	return maps.Equal(a.public, b.public) && maps.Equal(a.private, b.private) && slices.Equal(a.applied, b.applied)
}

// peerState copies p's view: its public state, its state of collection
// c (empty unless p is a member) and its applied ids in order.
func peerState(p *Peer) state {
	st := state{public: make(map[string]string), private: make(map[string]string), applied: appliedIDs(p)}
	p.view.RLock()
	defer p.view.RUnlock()
	for k, v := range p.state {
		st.public[k] = string(v)
	}
	for k, v := range p.private["c"] {
		st.private[k] = string(v)
	}
	return st
}

// BenchmarkApplyBatch is applyBatch as serve_batch drives it: four peers,
// each holding 100 000 keys, apply the same block of 64 overwrites of
// 64-byte values to keys drawn uniformly, under ids of one prefix. ns/tx
// is the time for all four peers to apply one transaction.
func BenchmarkApplyBatch(b *testing.B) {
	const peers, keys, perBlock = 4, 100_000, 64
	ps := make([]*Peer, peers)
	for i := range ps {
		ps[i] = newPeer(fmt.Sprintf("s0/peer%d", i), nil)
	}
	value := bytes.Repeat([]byte("v"), 64)
	next := 0
	block := func(key func(i int) int) []byte {
		txs := make([]Tx, perBlock)
		for i := range txs {
			next++
			txs[i] = Tx{ID: seqID(next), Kind: TxPut, Key: fmt.Sprintf("user%010d", key(i)), Value: value}
		}
		return runOf(txs)
	}
	for k := 0; k < keys; k += perBlock {
		run := block(func(i int) int { return (k + i) % keys })
		for _, p := range ps {
			p.applyBatch(run)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		run := block(func(int) int { return rng.Intn(keys) })
		b.StartTimer()
		for _, p := range ps {
			p.applyBatch(run)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBlock), "ns/tx")
}
