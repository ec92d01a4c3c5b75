// Package chain implements a permissioned blockchain on top of the PBFT
// substrate: hash-chained blocks with Merkle transaction roots, a
// materialized world state per peer, Fabric-style private data collections
// (only a hash on chain; the value distributed to collection members), and
// SharPer-style sharding with two-phase cross-shard transactions.
//
// This is PReVer's integrity layer for federated settings (Research
// Challenge 4): mutually distrustful data managers run peers; updates
// become transactions ordered by PBFT; any participant can audit the
// block chain and prove a transaction's inclusion.
package chain

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prever/internal/mempool"
	"prever/internal/merkle"
	"prever/internal/netsim"
	"prever/internal/pbft"
	"prever/internal/wire"
)

// TxKind is the transaction type.
type TxKind uint8

// Supported transaction kinds.
const (
	TxPut TxKind = iota + 1
	TxDelete
	TxPrivatePut   // public hash, private value held by collection members
	TxCrossPrepare // phase 1 of a cross-shard transaction
	TxCrossCommit  // phase 2: apply the prepared writes
	TxCrossAbort   // phase 2 alternative: discard the prepared writes
	TxPutOnce      // write only if the key is absent (first writer wins)
)

// Tx is one blockchain transaction.
type Tx struct {
	ID         string   `json:"id"`
	Kind       TxKind   `json:"kind"`
	Collection string   `json:"collection,omitempty"` // private collections only
	Key        string   `json:"key,omitempty"`
	Value      []byte   `json:"value,omitempty"`
	ValueHash  [32]byte `json:"valueHash,omitempty"` // private puts
	XID        string   `json:"xid,omitempty"`       // cross-shard tx id
	Writes     []Tx     `json:"writes,omitempty"`    // cross-prepare payload
}

// Block is one chained block of transactions.
type Block struct {
	Height   uint64   `json:"height"`
	PrevHash [32]byte `json:"prev"`
	TxRoot   [32]byte `json:"txroot"`
	Txs      []Tx     `json:"txs"`
	Hash     [32]byte `json:"hash"`
}

// txRoot is the Merkle root over the transactions' encodings (see
// codec.go), the leaves a block's TxRoot commits to.
func txRoot(txs []Tx) [32]byte {
	var f merkle.Frontier
	var buf []byte
	for i := range txs {
		buf = AppendTx(buf[:0], &txs[i])
		f.Add(buf)
	}
	return f.Root()
}

func blockHash(b *Block) [32]byte { return linkHash(b.Height, b.PrevHash, b.TxRoot) }

// HashValue hashes a private value the way TxPrivatePut expects.
func HashValue(v []byte) [32]byte { return sha256.Sum256(v) }

// Peer is one organization's node: it holds the block chain (as encoded
// heads and bodies, see blockstore.go), the public world state, and the
// private collections it is a member of.
type Peer struct {
	id          string
	collections map[string]bool // fixed after construction

	// view guards what readers see: the public state, the private
	// collections and the applied ids. Get, GetPrivate and the shard's
	// Executed probe read-lock it and never take mu: applyBatch write-locks
	// view once per block, to filter the block's ids and apply its writes,
	// so a read waits for at most that phase of one block, never for its
	// hashing. Restore swaps all three in one critical section. Lock
	// order: mu, then view.
	view    sync.RWMutex
	state   worldState
	private map[string]worldState // collection -> private state
	applied *idSet                // every applied tx id (exactly-once)

	mu       sync.Mutex
	heads    []blockHead       // append-only: an element, once written, never changes
	bodies   [][]byte          // likewise; bodies[i] belongs to heads[i]
	pendingP map[string][]byte // txID -> private value awaiting commit
	prepared map[string]TxView // xid -> the prepare, whose Writes are its writes
	root     merkle.Frontier   // scratch for the block being built: its root,
	fresh    []TxView          // its transactions, read in place,
	ops      [][]byte          // their committed bytes,
	body     []byte            // its body before it is cut to size,
	key      []byte            // and a private put's public key
}

func newPeer(id string, collections []string) *Peer {
	p := &Peer{
		id:          id,
		collections: make(map[string]bool),
		state:       make(worldState),
		private:     make(map[string]worldState),
		pendingP:    make(map[string][]byte),
		prepared:    make(map[string]TxView),
		applied:     newIDSet(),
	}
	for _, c := range collections {
		p.collections[c] = true
		p.private[c] = make(worldState)
	}
	return p
}

// ID returns the peer id.
func (p *Peer) ID() string { return p.id }

// Height returns the number of blocks.
func (p *Peer) Height() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.heads)
}

// chain returns the store as it stands. Both slices are append-only, so
// the caller may read what it was handed without the lock.
func (p *Peer) chain() ([]blockHead, [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heads, p.bodies
}

// Blocks materialises a copy of the chain for auditing: every
// transaction of every block is decoded. Verify audits the same chain
// without building any of them.
func (p *Peer) Blocks() []Block {
	heads, bodies := p.chain()
	out := make([]Block, len(heads))
	for i := range out {
		out[i] = materialise(heads, bodies, i)
	}
	return out
}

// Verify audits the peer's own chain in place, over the encoded bodies:
// hash links, transaction roots and counts, as VerifyBlocks does for an
// exported chain. It returns the number of blocks audited, the hash of
// the last one (zero for an empty chain), and the height of the first
// bad block, or -1 if clean.
func (p *Peer) Verify() (height int, tip [32]byte, bad int, err error) {
	heads, bodies := p.chain()
	if len(heads) > 0 {
		tip = heads[len(heads)-1].Hash
	}
	bad, err = verifyChain(heads, bodies)
	return len(heads), tip, bad, err
}

// Get reads the public world state.
func (p *Peer) Get(key string) ([]byte, error) {
	p.view.RLock()
	defer p.view.RUnlock()
	return p.state.get(key)
}

// GetPrivate reads a private collection this peer is a member of.
func (p *Peer) GetPrivate(collection, key string) ([]byte, error) {
	if !p.collections[collection] {
		return nil, fmt.Errorf("chain: peer %s is not a member of collection %q", p.id, collection)
	}
	p.view.RLock()
	defer p.view.RUnlock()
	return p.private[collection].get(key)
}

// executed reports whether the peer has applied a transaction with id.
func (p *Peer) executed(id string) bool {
	p.view.RLock()
	defer p.view.RUnlock()
	return p.applied.has(id)
}

// StagePrivateValue pre-positions a private value (distributed off-chain
// by the writer) so that when the on-chain hash commits, the peer can
// validate and store it.
func (p *Peer) StagePrivateValue(txID string, value []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	p.pendingP[txID] = cp
}

// unstagePrivateValue drops a staged value whose transaction will not
// commit.
func (p *Peer) unstagePrivateValue(txID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pendingP, txID)
}

// applyBatch turns the operations of one executed PBFT batch into a
// block and applies it, and reports how many were not transactions.
// Transactions whose ID already applied are dropped first: a consensus
// client that times out and retries can commit the same transaction into
// two instances, and this filter is what keeps the chain exactly-once.
// The id set is never pruned and depends only on the executed sequence —
// every peer applies the same instances in the same order, so every peer
// drops the same duplicates and the chains stay identical (a TTL filter
// here would make the drop decision depend on wall-clock timing and let
// replicas diverge).
//
// run holds the operations as they sit in the committed frame, each
// behind its uvarint length (mempool.DecodeBatch): a block body already.
// What the block keeps of a transaction is its encoding as committed, so
// when every operation is fresh run is the body, kept as it stands;
// otherwise the fresh ones are copied into a body of their own. Either
// way the peer keeps run's bytes, and nothing may change them after.
// Each transaction is read in place (TxView) and applied from there: a
// block of overwrites to existing keys under known id prefixes allocates
// nothing per transaction. run must be well framed; a framing error ends
// the batch as one more undecodable.
//
// The block is applied in two phases, holding mu throughout. With view
// write-held every op is viewed and filtered by id, then every fresh
// one is applied; then, without view, the root is folded and the block
// appended. A reader waits for the first phase, never for the hashing,
// and sees a block's ids and writes all at once. The writes get a loop
// of their own: a loop of nothing but map probes overlaps one probe's
// cache misses with the next one's, and BenchmarkApplyBatch is about
// 25 % slower with each put inside the filter loop.
func (p *Peer) applyBatch(run []byte) (undecodable int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fresh, ops := p.fresh[:0], p.ops[:0]
	whole := true
	p.view.Lock()
	r := wire.NewReader(run)
	for !r.Done() {
		op := r.Bytes()
		v, ok := ViewTx(op)
		if !ok {
			undecodable++
		}
		if !ok || (len(v.ID) != 0 && !p.applied.add(v.ID)) {
			whole = false // run is not the body
			if !r.OK() {
				break
			}
			continue
		}
		fresh = append(fresh, v)
		ops = append(ops, op)
	}
	for i := range fresh {
		p.applyTxLocked(&fresh[i])
	}
	p.view.Unlock()
	if len(ops) > 0 {
		p.appendBlock(run, ops, whole)
	}
	clear(fresh) // the scratch must not pin the committed bytes
	clear(ops)
	p.fresh, p.ops = fresh[:0], ops[:0]
	return undecodable
}

// appendBlock appends the block of ops, the fresh transactions of run;
// whole says they are all of run. The caller holds mu.
func (p *Peer) appendBlock(run []byte, ops [][]byte, whole bool) {
	var body []byte
	if whole {
		body = run[:len(run):len(run)] // an append to it must not reach past the run
	} else {
		body = p.body[:0]
		for _, op := range ops {
			body = wire.AppendBytes(body, op)
		}
		p.body = body[:0]
		body = bytes.Clone(body)
	}
	p.root.Reset()
	for _, op := range ops {
		p.root.Add(op)
	}
	head := blockHead{TxRoot: p.root.Root(), Txs: uint32(len(ops))}
	var prev [32]byte
	if len(p.heads) > 0 {
		prev = p.heads[len(p.heads)-1].Hash
	}
	head.Hash = linkHash(uint64(len(p.heads)), prev, head.TxRoot)
	p.heads = append(p.heads, head)
	p.bodies = append(p.bodies, body)
}

// applyTxLocked applies one fresh transaction. The caller holds mu and
// holds view for writing.
func (p *Peer) applyTxLocked(tx *TxView) {
	switch tx.Kind {
	case TxPut:
		p.state.put(tx.Key, tx.Value)
	case TxPutOnce:
		if !p.state.has(tx.Key) {
			p.state.put(tx.Key, tx.Value)
		}
	case TxDelete:
		p.state.delete(tx.Key)
	case TxPrivatePut:
		// On-chain: record the hash publicly so everyone can audit.
		h := tx.valueHash()
		p.key = append(append(append(append(p.key[:0], "hash/"...), tx.Collection...), '/'), tx.Key...)
		p.state.put(p.key, h[:])
		// Members store the value if the staged copy matches the hash.
		if p.collections[string(tx.Collection)] {
			if v, ok := p.pendingP[string(tx.ID)]; ok && HashValue(v) == h {
				p.private[string(tx.Collection)].put(tx.Key, v)
			}
			delete(p.pendingP, string(tx.ID))
		}
	case TxCrossPrepare:
		// The writes stay where they were committed, as a view of them.
		p.prepared[string(tx.XID)] = *tx
	case TxCrossCommit:
		if prep, ok := p.prepared[string(tx.XID)]; ok {
			prep.eachWrite(p.applyTxLocked)
			delete(p.prepared, string(tx.XID))
		}
	case TxCrossAbort:
		delete(p.prepared, string(tx.XID))
	}
}

// VerifyBlocks audits an exported chain: hash links and transaction roots.
// Returns the height of the first bad block, or -1 if clean.
func VerifyBlocks(blocks []Block) (int, error) {
	var prev [32]byte
	for i := range blocks {
		b := &blocks[i]
		if b.Height != uint64(i) {
			return i, fmt.Errorf("chain: block %d has height %d", i, b.Height)
		}
		if b.PrevHash != prev {
			return i, fmt.Errorf("chain: block %d breaks the hash chain", i)
		}
		if txRoot(b.Txs) != b.TxRoot {
			return i, fmt.Errorf("chain: block %d transaction root mismatch", i)
		}
		if blockHash(b) != b.Hash {
			return i, fmt.Errorf("chain: block %d hash mismatch", i)
		}
		prev = b.Hash
	}
	return -1, nil
}

// ProveTx builds a Merkle inclusion proof for transaction index txIdx of
// block height h, verifiable against the block's TxRoot. The tree is
// rebuilt from the block's body for the occasion.
func (p *Peer) ProveTx(height uint64, txIdx int) (merkle.InclusionProof, Tx, error) {
	heads, bodies := p.chain()
	if height >= uint64(len(heads)) {
		return merkle.InclusionProof{}, Tx{}, fmt.Errorf("chain: height %d beyond chain (%d)", height, len(heads))
	}
	n := int(heads[height].Txs)
	if txIdx < 0 || txIdx >= n {
		return merkle.InclusionProof{}, Tx{}, fmt.Errorf("chain: tx index %d out of range", txIdx)
	}
	tree := merkle.New()
	var leaf []byte
	eachTx(bodies[height], func(enc []byte) bool {
		if tree.Append(enc) == txIdx {
			leaf = enc
		}
		return true
	})
	proof, err := tree.ProveInclusion(txIdx, n)
	if err != nil {
		return merkle.InclusionProof{}, Tx{}, err
	}
	tx, err := DecodeTx(leaf)
	return proof, tx, err
}

// VerifyTxProof checks a transaction inclusion proof against a block.
func VerifyTxProof(proof merkle.InclusionProof, tx Tx, blk Block) error {
	return merkle.VerifyInclusion(proof, txBytes(tx), merkle.Hash(blk.TxRoot))
}

// Shard is one PBFT cluster of peers ordering a partition of the key
// space. Submission is batch-first: transactions enter a mempool, a
// leader-side batcher drains them into batched PBFT requests with
// pipelined in-flight instances, and per-transaction results come back
// asynchronously (SubmitAsync / SubmitBatch).
type Shard struct {
	Name     string
	nonce    string // boot nonce: disambiguates client identity and tx IDs across restarts
	durable  bool
	peers    []*Peer
	replicas []*pbft.Replica
	client   *pbft.Client
	pool     *mempool.Pool
	batcher  *mempool.Batcher
	mint     sync.RWMutex // read-held while minting and admitting; a claim of a minted id write-locks it once, as a barrier (submit)
	seq      atomic.Uint64
	txIDs    string      // "<name>-<nonce>-tx-": what an assigned id is, before its sequence number
	ptxIDs   string      // likewise "<name>-<nonce>-ptx-" for private puts
	cfg      ShardConfig // resolved at NewShard, never written after

	statsMu sync.Mutex
	stats   Stats
}

// DefaultMaxTxBytes is ShardConfig.MaxTxBytes when it is left zero.
const DefaultMaxTxBytes = 1 << 20

// ShardConfig configures one shard. NewShard resolves its zero fields to
// their defaults; a shard never changes its configuration.
type ShardConfig struct {
	Name        string
	F           int                 // tolerated Byzantine peers (n = 3f+1)
	Collections map[string][]string // collection -> member peer ids
	PBFT        pbft.Options
	Timeout     time.Duration  // per-transaction commit timeout; zero means 10 s
	Mempool     mempool.Config // zero fields take the mempool package's defaults
	// MaxTxBytes bounds one transaction in its binary encoding, the one
	// consensus carries (a 64-byte put is about 100 bytes), not the JSON
	// of an HTTP request. A larger submission fails with ErrTxTooLarge.
	// Zero means DefaultMaxTxBytes.
	MaxTxBytes int
	// DataDir, when set, makes every peer's PBFT replica crash-durable:
	// consensus state is journaled to a WAL under DataDir/<peerID> and
	// the peer's chain is snapshot-restored on reopen. Empty means
	// in-memory (state dies with the process).
	DataDir string
	// SnapshotEvery is the executed-sequence cadence between durable
	// snapshots. Zero means pbft.DefaultSnapshotEvery.
	SnapshotEvery uint64
}

// NewShard builds a shard of 3F+1 peers on the network.
func NewShard(net *netsim.Network, cfg ShardConfig) (*Shard, error) {
	if cfg.F < 1 {
		return nil, errors.New("chain: f must be >= 1")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxTxBytes <= 0 {
		cfg.MaxTxBytes = DefaultMaxTxBytes
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = pbft.DefaultSnapshotEvery
	}
	n := 3*cfg.F + 1
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s/peer%d", cfg.Name, i)
	}
	memberOf := func(peerID string) []string {
		var out []string
		for coll, members := range cfg.Collections {
			for _, m := range members {
				if m == peerID {
					out = append(out, coll)
				}
			}
		}
		return out
	}
	s := &Shard{Name: cfg.Name, nonce: bootNonce(), durable: cfg.DataDir != ""}
	s.txIDs, s.ptxIDs = s.Name+"-"+s.nonce+"-tx-", s.Name+"-"+s.nonce+"-ptx-"
	for _, id := range ids {
		peer := newPeer(id, memberOf(id))
		s.peers = append(s.peers, peer)
		applier := func(_ uint64, req pbft.Request) {
			// Every request the shard's client submits is one framed
			// mempool batch, whose op run is applied as it sits in the
			// committed request. Anything else that committed cannot be
			// applied, and is counted rather than dropped unseen.
			undecodable := 1
			if run, ok := mempool.DecodeBatch(req.Op); ok {
				undecodable = peer.applyBatch(run)
			}
			if undecodable > 0 {
				s.statsMu.Lock()
				s.stats.Undecodable += int64(undecodable)
				s.statsMu.Unlock()
			}
		}
		var replica *pbft.Replica
		var err error
		if cfg.DataDir != "" {
			// Peer IDs like "shard0/peer3" nest naturally as directories.
			replica, err = pbft.NewDurableReplica(net, id, ids, cfg.F, applier, cfg.PBFT, pbft.DurableOptions{
				Dir:           filepath.Join(cfg.DataDir, id),
				App:           peer,
				SnapshotEvery: cfg.SnapshotEvery,
			})
		} else {
			replica, err = pbft.NewReplica(net, id, ids, cfg.F, applier, cfg.PBFT)
		}
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, replica)
	}
	if cfg.DataDir != "" {
		// Recovered replicas replayed their WALs to wherever each one's
		// fsync happened to land at kill time, so their execution points
		// can differ by a few sequences. Sync state-transfers the delta
		// and re-votes certified-but-unexecuted instances; without it a
		// lagging replica converges only if fresh traffic happens to
		// trigger the transfer path.
		for _, r := range s.replicas {
			r.Sync()
		}
	}
	// The client name and tx IDs carry the boot nonce: a restarted process
	// reuses the same client identity namespace otherwise, and its
	// restarted sequence counter / tx counter would collide with the
	// recovered dedup state (executedR, the peers' applied ids) — silently
	// dropping fresh transactions as "already executed".
	client, err := pbft.NewClient(net, s.replicas, "chain/"+cfg.Name+"/"+s.nonce, pbft.ClientOptions{})
	if err != nil {
		return nil, err
	}
	s.client = client
	// The pool keeps no memory of executed ids; it asks the chain. A batch
	// resolves when the replica the client handed it to has executed it
	// (2f+1 commit votes) and applied it to its own peer, and only then
	// wakes the waiter: some peer's id set has its ids by then.
	cfg.Mempool.Executed = s.executed
	s.pool = mempool.NewPool(cfg.Mempool)
	cfg.Mempool = s.pool.Config()
	s.cfg = cfg
	s.batcher = mempool.NewBatcher(s.pool, s.propose)
	return s, nil
}

// executed is the shard's mempool.Config.Executed: whether any of its
// peers has applied a transaction with id. It read-locks each peer's
// view and never takes a peer's mu, so it waits for at most one block's
// filter-and-apply phase per peer, never for its hashing or for the
// blocks queued behind it; the pool holds no lock of its own meanwhile.
func (s *Shard) executed(id string) bool {
	for _, p := range s.peers {
		if p.executed(id) {
			return true
		}
	}
	return false
}

// propose is the shard's mempool.Proposer. StartBatch assigns the client
// sequence number and hands the batch to the primary before returning,
// fixing the commit order of pipelined batches at dispatch time.
func (s *Shard) propose(ops [][]byte) func() error {
	p := s.client.StartBatch(ops)
	return func() error { return p.Wait(s.cfg.Timeout) }
}

// bootNonce returns a short random token unique to this process
// incarnation.
func bootNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("chain: boot nonce: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Close stops the shard's batcher and fails any queued transactions with
// an error, then (for durable shards) syncs and closes every replica's
// journal. The consensus replicas keep running in memory (they belong to
// the network); only the submission front end and storage shut down.
func (s *Shard) Close() error {
	s.batcher.Stop()
	err := s.pool.Close()
	if s.durable {
		for _, r := range s.replicas {
			if cerr := r.CloseStorage(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Config returns the configuration the shard was built with, defaults
// resolved.
func (s *Shard) Config() ShardConfig { return s.cfg }

// Peers returns the shard's peers.
func (s *Shard) Peers() []*Peer { return s.peers }

// Replicas returns the shard's PBFT replicas, for fault injection in
// tests and benchmarks (Crash/Restart/Sync).
func (s *Shard) Replicas() []*pbft.Replica { return s.replicas }

// SubmitPrivate distributes a private value to collection members
// off-chain, then orders the on-chain hash through the mempool like any
// other transaction: the returned channel resolves when the hash
// transaction's batch commits. A submission that fails (pool full, shard
// closed, too large, consensus timeout) takes the staged copies back, so
// values that will never be claimed do not pile up on the members.
func (s *Shard) SubmitPrivate(collection, key string, value []byte) <-chan Result {
	tx := Tx{Kind: TxPrivatePut, Collection: collection, Key: key, ValueHash: HashValue(value)}
	stage := func(id string) {
		for _, p := range s.peers {
			if p.collections[collection] {
				p.StagePrivateValue(id, value)
			}
		}
	}
	return s.submit(encodeTxs([]Tx{tx}), s.ptxIDs, stage, func(res Result) {
		if res.Err != nil && !errors.Is(res.Err, ErrDuplicate) {
			for _, p := range s.peers {
				p.unstagePrivateValue(res.TxID)
			}
		}
	}).done
}

// Sharded is a SharPer-style multi-shard chain: the key space is
// partitioned across shards; cross-shard transactions run a two-phase
// prepare/commit with the client as coordinator, each phase ordered by the
// involved shards' consensus.
type Sharded struct {
	shards []*Shard
	nonce  string // boot nonce: keeps cross-shard XIDs from colliding with recovered prepares
	xseq   atomic.Uint64
}

// NewSharded groups shards into one logical chain.
func NewSharded(shards ...*Shard) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("chain: need at least one shard")
	}
	return &Sharded{shards: shards, nonce: bootNonce()}, nil
}

// Shards returns the shard list.
func (c *Sharded) Shards() []*Shard { return c.shards }

// ShardFor maps a key to its home shard.
func (c *Sharded) ShardFor(key string) *Shard { return c.shards[shardIndex(key, len(c.shards))] }

// shardIndex is the index of key's home among shards, sha256(key)[0] mod
// the shard count; existing data directories depend on it
// (TestShardPlacement). One shard is every key's home, with no hash taken.
func shardIndex[T string | []byte](key T, shards int) int {
	if shards == 1 {
		return 0
	}
	h := sha256.Sum256([]byte(key))
	return int(h[0]) % shards
}

// SubmitAsync routes a single-shard transaction to its home shard's
// mempool and returns that shard's result channel.
func (c *Sharded) SubmitAsync(tx Tx) <-chan Result {
	return c.ShardFor(tx.Key).SubmitAsync(tx)
}

// SubmitPrivate routes a private put to the key's home shard.
func (c *Sharded) SubmitPrivate(collection, key string, value []byte) <-chan Result {
	return c.ShardFor(key).SubmitPrivate(collection, key, value)
}

// SubmitCross atomically applies writes that span multiple shards:
// phase 1 orders a prepare (carrying each shard's writes) on every
// involved shard; phase 2 orders the commit. If any prepare fails, aborts
// are sent to the prepared shards.
func (c *Sharded) SubmitCross(writes []Tx) error {
	if len(writes) == 0 {
		return nil
	}
	xid := fmt.Sprintf("xtx-%s-%d", c.nonce, c.xseq.Add(1))
	// Group writes by home shard.
	byShard := make(map[*Shard][]Tx)
	for _, w := range writes {
		s := c.ShardFor(w.Key)
		byShard[s] = append(byShard[s], w)
	}
	// Phase 1: prepare everywhere.
	var preparedShards []*Shard
	for s, ws := range byShard {
		err := submitWait(s, Tx{Kind: TxCrossPrepare, XID: xid, Writes: ws})
		if err != nil {
			for _, ps := range preparedShards {
				_ = submitWait(ps, Tx{Kind: TxCrossAbort, XID: xid})
			}
			return fmt.Errorf("chain: cross-shard prepare failed on %s: %w", s.Name, err)
		}
		preparedShards = append(preparedShards, s)
	}
	// Phase 2: commit everywhere.
	var firstErr error
	for s := range byShard {
		if err := submitWait(s, Tx{Kind: TxCrossCommit, XID: xid}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chain: cross-shard commit failed on %s: %w", s.Name, err)
		}
	}
	return firstErr
}
