package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"prever/internal/merkle"
	"prever/internal/wire"
)

// A peer keeps its chain as bytes, not as Block values: history only
// grows, and a heap of per-transaction objects is what the collector
// re-marks on every cycle for as long as the process lives. Per block
// there is one pointer-free head and one body,
//
//	head: TxRoot[32] | Hash[32] | tx count     (height is the index,
//	                                            PrevHash the head before)
//	body: (uvarint len | tx)*                  the committed encodings
//
// and the body's transactions are the very bytes that went through
// consensus. DecodeTx accepts only what AppendTx writes (FuzzDecodeTx
// pins encode(decode(b)) == b), so those bytes are the Merkle leaf under
// TxRoot as they stand: nothing is re-encoded on the apply path, and a
// Block, a Tx or an inclusion proof is materialised from them only when
// someone asks.

// blockHead is what a peer keeps of a block besides its transactions.
type blockHead struct {
	TxRoot [32]byte
	Hash   [32]byte
	Txs    uint32
}

// headBytes is a head's encoded size floor in a snapshot image: two
// hashes and a one-byte count.
const headBytes = 65

func linkHash(height uint64, prev, root [32]byte) [32]byte {
	var b [8 + 32 + 32]byte
	binary.LittleEndian.PutUint64(b[:], height)
	copy(b[8:], prev[:])
	copy(b[40:], root[:])
	return sha256.Sum256(b[:])
}

// eachTx calls fn with every encoded transaction of a block body, in
// order, until fn returns false. It reports whether the body was well
// framed (and fn never stopped it).
func eachTx(body []byte, fn func(enc []byte) bool) bool {
	r := wire.NewReader(body)
	for !r.Done() {
		enc := r.Bytes()
		if !r.OK() || !fn(enc) {
			return false
		}
	}
	return true
}

// bodyRoot folds a body's transactions into their Merkle root and count.
func bodyRoot(f *merkle.Frontier, body []byte) (root [32]byte, txs int, ok bool) {
	f.Reset()
	ok = eachTx(body, func(enc []byte) bool { f.Add(enc); return true })
	return f.Root(), f.Size(), ok
}

// verifyChain audits heads and bodies in place: framing, transaction
// roots and counts, and the hash links. It returns the height of the
// first bad block, or -1.
func verifyChain(heads []blockHead, bodies [][]byte) (int, error) {
	var f merkle.Frontier
	var prev [32]byte
	for i := range heads {
		h := &heads[i]
		root, txs, ok := bodyRoot(&f, bodies[i])
		if !ok {
			return i, fmt.Errorf("chain: block %d body is not a sequence of transactions", i)
		}
		if root != h.TxRoot || txs != int(h.Txs) {
			return i, fmt.Errorf("chain: block %d transaction root mismatch", i)
		}
		if linkHash(uint64(i), prev, h.TxRoot) != h.Hash {
			return i, fmt.Errorf("chain: block %d hash mismatch", i)
		}
		prev = h.Hash
	}
	return -1, nil
}

// materialise decodes block i of a store whose bodies hold only what
// DecodeTx accepted (the applier and Restore both see to that).
func materialise(heads []blockHead, bodies [][]byte, i int) Block {
	b := Block{Height: uint64(i), TxRoot: heads[i].TxRoot, Hash: heads[i].Hash, Txs: make([]Tx, 0, heads[i].Txs)}
	if i > 0 {
		b.PrevHash = heads[i-1].Hash
	}
	eachTx(bodies[i], func(enc []byte) bool {
		tx, err := DecodeTx(enc)
		if err != nil {
			panic(fmt.Sprintf("chain: block %d holds an undecodable transaction: %v", i, err))
		}
		b.Txs = append(b.Txs, tx)
		return true
	})
	return b
}
