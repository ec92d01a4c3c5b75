package chain

import (
	"encoding/binary"
	"errors"
	"math/bits"

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
	return AppendTx(make([]byte, 0, txSize(&tx)), &tx)
}

// txSize is the length of tx's encoding.
func txSize(tx *Tx) int {
	n := 1 + strSize(len(tx.ID)) + strSize(len(tx.Collection)) + strSize(len(tx.Key)) +
		strSize(len(tx.Value)) + strSize(len(tx.XID)) + uvarintSize(uint64(len(tx.Writes)))
	if tx.ValueHash == ([32]byte{}) {
		n++
	} else {
		n += strSize(len(tx.ValueHash))
	}
	for i := range tx.Writes {
		n += txSize(&tx.Writes[i])
	}
	return n
}

func strSize(n int) int { return uvarintSize(uint64(n)) + n }

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// TxView is a transaction read in place: every field is a sub-slice of
// the encoding it was read from (nil when empty), so reading one
// allocates nothing. The applier reads committed transactions this way,
// the submit path reads what it admits this way, and internal/api checks
// a batch body's transactions this way; DecodeTx is a view made into a
// Tx. Writes is the nested transactions' encodings back to back,
// NWrites of them, each already checked.
type TxView struct {
	Kind                                  TxKind
	ID, Collection, Key, Value, Hash, XID []byte
	Writes                                []byte
	NWrites                               int
}

// ViewTx reads b as one transaction. It accepts exactly what DecodeTx
// accepts (FuzzViewTx), Writes nested at most maxWritesDepth.
func ViewTx(b []byte) (v TxView, ok bool) {
	r := wire.NewReader(b)
	readView(&r, b, &v, 0)
	if !r.Done() {
		return TxView{}, false
	}
	return v, true
}

// readView reads one transaction from r, which reads from b, and checks
// every nested one; the fields of v are sub-slices of b.
func readView(r *wire.Reader, b []byte, v *TxView, depth int) {
	v.Kind = TxKind(r.Byte())
	v.ID = r.Bytes()
	v.Collection = r.Bytes()
	v.Key = r.Bytes()
	v.Value = r.Bytes()
	if v.Hash = r.Bytes(); v.Hash != nil && (len(v.Hash) != 32 || [32]byte(v.Hash) == [32]byte{}) {
		r.Fail()
	}
	v.XID = r.Bytes()
	v.NWrites = r.Count(minTxBytes)
	v.Writes = nil
	if v.NWrites == 0 {
		return
	}
	if depth == maxWritesDepth {
		r.Fail()
		return
	}
	at := len(b) - r.Len()
	var w TxView
	for i := 0; i < v.NWrites && r.OK(); i++ {
		readView(r, b, &w, depth+1)
	}
	v.Writes = b[at : len(b)-r.Len()]
}

// eachWrite calls fn with a view of each of v's nested transactions, in
// order.
func (v *TxView) eachWrite(fn func(w *TxView)) {
	r := wire.NewReader(v.Writes)
	var w TxView
	for i := 0; i < v.NWrites; i++ {
		readView(&r, v.Writes, &w, 0) // checked to its depth when v was read
		fn(&w)
	}
}

// lane is the view's mempool ordering key: the row key (per-key
// submission order survives batching), else the cross-shard id of a
// keyless 2PC phase; empty means the transaction's own id.
func (v *TxView) lane() []byte {
	if len(v.Key) > 0 {
		return v.Key
	}
	return v.XID
}

// valueHash is the view's ValueHash.
func (v *TxView) valueHash() (h [32]byte) {
	copy(h[:], v.Hash)
	return h
}

// tx makes the view into a Tx that aliases nothing of the encoding.
func (v *TxView) tx() Tx {
	tx := Tx{
		Kind:       v.Kind,
		ID:         string(v.ID),
		Collection: string(v.Collection),
		Key:        string(v.Key),
		XID:        string(v.XID),
	}
	if v.Value != nil {
		tx.Value = append([]byte(nil), v.Value...)
	}
	tx.ValueHash = v.valueHash()
	if v.NWrites > 0 {
		// Sized from the count, which ViewTx checked against the bytes
		// that are really there.
		tx.Writes = make([]Tx, 0, v.NWrites)
		v.eachWrite(func(w *TxView) { tx.Writes = append(tx.Writes, w.tx()) })
	}
	return tx
}

// DecodeTx is the strict inverse of AppendTx. Nothing in the result
// aliases b.
func DecodeTx(b []byte) (Tx, error) {
	v, ok := ViewTx(b)
	if !ok {
		return Tx{}, errBadTx
	}
	return v.tx(), nil
}
