package mempool

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Batch framing: a drained batch travels through consensus as one opaque
// value — one paxos slot, one pbft request under one client sequence
// number, so the cluster's request dedup gives the whole batch
// exactly-once semantics across retries — and the applier fans it back
// out into its operations.

// batchMagic prefixes an encoded batch. It is part of the on-disk
// format: replica WALs and snapshots hold framed batches, so the bytes
// ("pbB1", from when pbft owned this codec) cannot change without
// orphaning existing data directories.
var batchMagic = []byte("pbB1")

// EncodeBatch frames ops as one consensus value.
func EncodeBatch(ops [][]byte) []byte {
	body, err := json.Marshal(ops)
	if err != nil {
		// [][]byte always marshals; keep the signature ergonomic.
		panic(fmt.Sprintf("mempool: encode batch: %v", err))
	}
	return append(append([]byte{}, batchMagic...), body...)
}

// DecodeBatch unframes a consensus value. ok is false when v is not a
// batch (a no-op fill, a bare value some other client proposed).
func DecodeBatch(v []byte) ([][]byte, bool) {
	if !bytes.HasPrefix(v, batchMagic) {
		return nil, false
	}
	var ops [][]byte
	if err := json.Unmarshal(v[len(batchMagic):], &ops); err != nil {
		return nil, false
	}
	return ops, true
}
