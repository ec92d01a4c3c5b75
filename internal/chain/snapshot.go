package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"prever/internal/wire"
)

// The peer snapshot is the store's own bytes,
//
//	str "prever/chain/peer/v3" | uvarint blocks |
//	(TxRoot[32] | Hash[32] | uvarint txs)* | (uvarint len | body)*
//
// and nothing else: world state, private-collection hashes, prepared
// cross-shard writes and the applied-id set are deterministic replays of
// the bodies. It is a pure function of the chain — PBFT state transfer
// adopts an image when f+1 replicas offer byte-identical ones.
const peerSnapFormat = "prever/chain/peer/v3"

var errBadImage = errors.New("chain: malformed peer snapshot")

func appendImage(b []byte, heads []blockHead, bodies [][]byte) []byte {
	b = wire.AppendString(b, peerSnapFormat)
	b = binary.AppendUvarint(b, uint64(len(heads)))
	for i := range heads {
		b = append(b, heads[i].TxRoot[:]...)
		b = append(b, heads[i].Hash[:]...)
		b = binary.AppendUvarint(b, uint64(heads[i].Txs))
	}
	for _, body := range bodies {
		b = wire.AppendBytes(b, body)
	}
	return b
}

// decodeImage parses a snapshot. The bodies are sub-slices of data.
func decodeImage(data []byte) ([]blockHead, [][]byte, error) {
	r := wire.NewReader(data)
	if format := r.Bytes(); string(format) != peerSnapFormat {
		if len(format) > 64 {
			format = format[:64]
		}
		return nil, nil, fmt.Errorf("chain: unknown peer snapshot format %q", format)
	}
	n := r.Count(headBytes + 1) // a body costs at least its length byte
	heads := make([]blockHead, n)
	for i := range heads {
		copy(heads[i].TxRoot[:], r.Fixed(32))
		copy(heads[i].Hash[:], r.Fixed(32))
		txs := r.Uvarint()
		if txs > math.MaxUint32 {
			r.Fail()
		}
		heads[i].Txs = uint32(txs)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = r.Bytes()
	}
	if !r.Done() {
		return nil, nil, errBadImage
	}
	return heads, bodies, nil
}

// Snapshot encodes the peer's chain for a consensus-layer snapshot
// (wal.Snapshotter). Private collection VALUES are not included: they
// live off-chain by design (only their hashes are chained) and must be
// redistributed by their writers after a disk recovery.
func (p *Peer) Snapshot() ([]byte, error) {
	heads, bodies := p.chain()
	size := len(peerSnapFormat) + 16 + len(heads)*(headBytes+8)
	for _, body := range bodies {
		size += len(body)
	}
	return appendImage(make([]byte, 0, size), heads, bodies), nil
}

// Restore replaces the peer's state with a snapshot by running it: the
// image's bodies go through applyBatch on a scratch peer, which rebuilds
// world state, prepared cross-shard writes, the applied-id set — and the
// heads. Unless every rebuilt head and body equals the image's (so every
// link and root verifies, every transaction decodes, and no id repeats),
// the snapshot is rejected and p is left as it was.
func (p *Peer) Restore(data []byte) error {
	heads, bodies, err := decodeImage(data)
	if err != nil {
		return err
	}
	collections := make([]string, 0, len(p.collections))
	for c := range p.collections {
		collections = append(collections, c)
	}
	np := newPeer(p.id, collections)
	var ops [][]byte
	for i, body := range bodies {
		ops = ops[:0]
		framed := eachTx(body, func(enc []byte) bool { ops = append(ops, enc); return true })
		if framed {
			np.applyBatch(ops)
		}
		if len(np.heads) != i+1 || np.heads[i] != heads[i] || !bytes.Equal(np.bodies[i], body) {
			return fmt.Errorf("chain: snapshot chain invalid at block %d", i)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heads, p.bodies = np.heads, np.bodies
	p.pendingP, p.prepared = np.pendingP, np.prepared
	p.applied.adopt(np.applied)
	p.state.adopt(np.state)
	for c, kv := range p.private {
		kv.adopt(np.private[c])
	}
	return nil
}
