package mempool

import (
	"bytes"
	"encoding/binary"

	"prever/internal/wire"
)

// Batch framing: a drained batch travels through consensus as one opaque
// value — one paxos slot, one pbft request under one client sequence
// number, so the cluster's request dedup gives the whole batch
// exactly-once semantics across retries — and the applier fans it back
// out into its operations.
//
//	"pbB2" | uvarint count | (uvarint len | op bytes)*
//
// The magic is part of the on-disk format (replica WALs and snapshots
// hold framed batches), so it changes with the layout: "pbB1" frames, a
// JSON array, are not batches to this decoder, and the data directories
// that hold them are refused by their FORMAT stamp before one is read.
var batchMagic = []byte("pbB2")

// EncodeBatch frames ops as one consensus value.
func EncodeBatch(ops [][]byte) []byte {
	size := len(batchMagic) + 10
	for _, op := range ops {
		size += len(op) + 5
	}
	b := append(make([]byte, 0, size), batchMagic...)
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = wire.AppendBytes(b, op)
	}
	return b
}

// DecodeBatch unframes a consensus value. It returns the ops where they
// sit in v: the (uvarint len | op)* run after the count, which is how a
// chain block body frames its transactions (wire.Reader walks it). ok is
// false when v is not a batch (a no-op fill, a bare value some other
// client proposed) or is a damaged one: short, over-long or followed by
// trailing bytes. It allocates nothing.
func DecodeBatch(v []byte) (run []byte, ok bool) {
	if !bytes.HasPrefix(v, batchMagic) {
		return nil, false
	}
	r := wire.NewReader(v[len(batchMagic):])
	n := r.Count(1) // an op costs at least its length byte
	run = v[len(v)-r.Len():]
	for i := 0; i < n; i++ {
		r.Bytes()
	}
	if !r.Done() {
		return nil, false
	}
	return run, true
}
