package chain

import (
	"encoding/binary"
	"errors"

	"prever/internal/wire"
)

// The transaction's one encoding: what a client posts to the batch route
// (internal/api), what the mempool carries, what rides through consensus
// inside the batch frame, and the Merkle leaf under a block's TxRoot.
// Fixed field order, every field always present:
//
//	kind u8 | id str | collection str | key str | value bytes |
//	hash (uvarint 0, or uvarint 32 | 32 bytes) | xid str |
//	uvarint count | tx*            (Writes, nested at most maxWritesDepth)
//
// str and bytes are uvarint(len) | bytes. The form is canonical — the
// leaf hash depends on it — so an empty Value and an absent one encode
// alike (and decode as nil), the all-zero ValueHash is the zero-length
// form only, and DecodeTx refuses anything AppendTx would not have
// written, trailing bytes included.

// maxWritesDepth bounds how deep Writes may nest. A cross-shard prepare
// carries plain writes (depth 1); the cap keeps a forged transaction
// from recursing the decoder off the stack.
const maxWritesDepth = 4

// minTxBytes is the encoded size of the zero transaction: one byte per
// field.
const minTxBytes = 8

var errBadTx = errors.New("chain: malformed transaction encoding")

// AppendTx appends tx's encoding to b.
func AppendTx(b []byte, tx *Tx) []byte {
	b = append(b, byte(tx.Kind))
	b = wire.AppendString(b, tx.ID)
	b = wire.AppendString(b, tx.Collection)
	b = wire.AppendString(b, tx.Key)
	b = wire.AppendBytes(b, tx.Value)
	if tx.ValueHash == ([32]byte{}) {
		b = append(b, 0)
	} else {
		b = wire.AppendBytes(b, tx.ValueHash[:])
	}
	b = wire.AppendString(b, tx.XID)
	b = binary.AppendUvarint(b, uint64(len(tx.Writes)))
	for i := range tx.Writes {
		b = AppendTx(b, &tx.Writes[i])
	}
	return b
}

// txBytes encodes one transaction.
func txBytes(tx Tx) []byte {
	return AppendTx(make([]byte, 0, minTxBytes+len(tx.ID)+len(tx.Key)+len(tx.Value)+40), &tx)
}

// writesDepth reports how deep tx.Writes nests (0 for a plain write).
func writesDepth(tx *Tx) int {
	d := 0
	for i := range tx.Writes {
		if wd := writesDepth(&tx.Writes[i]) + 1; wd > d {
			d = wd
		}
	}
	return d
}

// DecodeTx is the strict inverse of AppendTx. Nothing in the result
// aliases b.
func DecodeTx(b []byte) (Tx, error) {
	r := wire.NewReader(b)
	var tx Tx
	readTx(&r, &tx, 0)
	if !r.Done() {
		return Tx{}, errBadTx
	}
	return tx, nil
}

func readTx(r *wire.Reader, tx *Tx, depth int) {
	tx.Kind = TxKind(r.Byte())
	tx.ID = r.String()
	tx.Collection = r.String()
	tx.Key = r.String()
	if v := r.Bytes(); v != nil {
		tx.Value = append([]byte(nil), v...)
	}
	if h := r.Bytes(); h != nil {
		copy(tx.ValueHash[:], h)
		if len(h) != len(tx.ValueHash) || tx.ValueHash == ([32]byte{}) {
			r.Fail()
		}
	}
	tx.XID = r.String()
	n := r.Count(minTxBytes)
	if n == 0 {
		return
	}
	if depth == maxWritesDepth {
		r.Fail()
		return
	}
	// Grown one decoded element at a time, not sized from the count: a
	// Tx in memory is ~20x its smallest encoding.
	for i := 0; i < n && r.OK(); i++ {
		tx.Writes = append(tx.Writes, Tx{})
		readTx(r, &tx.Writes[i], depth+1)
	}
}
