package chain

import (
	"encoding/json"
	"fmt"

	"prever/internal/store"
)

// peerSnapshot is a Peer's durable image. The block chain is the source
// of truth: world state, private-collection hashes, prepared cross-shard
// writes, and the applied-transaction dedup set are all deterministic
// replays of it, so only the blocks are stored and everything else is
// rebuilt (and re-verified) on Restore.
type peerSnapshot struct {
	Format string  `json:"format"`
	Blocks []Block `json:"blocks"`
}

const peerSnapFormat = "prever/chain/peer/v2"

// Snapshot encodes the peer's chain for a consensus-layer snapshot
// (wal.Snapshotter). Private collection VALUES are not included: they
// live off-chain by design (only their hashes are chained) and must be
// redistributed by their writers after a disk recovery.
func (p *Peer) Snapshot() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return json.Marshal(peerSnapshot{Format: peerSnapFormat, Blocks: p.blocks})
}

// Restore replaces the peer's state with a snapshot: the chain is
// re-verified (hash links, transaction roots) and every block is
// re-applied, rebuilding world state, prepared cross-shard writes, and
// the exactly-once dedup set. A corrupt or tampered snapshot is rejected
// before any state changes.
func (p *Peer) Restore(data []byte) error {
	var snap peerSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("chain: decoding peer snapshot: %w", err)
	}
	if snap.Format != peerSnapFormat {
		return fmt.Errorf("chain: unknown peer snapshot format %q", snap.Format)
	}
	if bad, err := VerifyBlocks(snap.Blocks); err != nil {
		return fmt.Errorf("chain: snapshot chain invalid at block %d: %w", bad, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocks = append([]Block(nil), snap.Blocks...)
	p.state = store.NewKV()
	for coll := range p.private {
		p.private[coll] = store.NewKV()
	}
	p.pendingP = make(map[string][]byte)
	p.prepared = make(map[string][]Tx)
	p.appliedTx = make(map[string]bool)
	for i := range p.blocks {
		for _, tx := range p.blocks[i].Txs {
			if tx.ID != "" {
				p.appliedTx[tx.ID] = true
			}
			p.applyTxLocked(tx)
		}
	}
	return nil
}
