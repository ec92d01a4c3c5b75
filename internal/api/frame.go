package api

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prever/internal/chain"
	"prever/internal/wire"
)

// The batch route's frames. A request body is
//
//	uvarint count | (uvarint len | tx)*
//
// count in [1, MaxBatchTxs], each tx in the chain's own encoding
// (chain.AppendTx): the bytes the mempool carries and the Merkle leaf
// commits to, so the server checks each transaction in place and copies
// it once, into the mempool, never decoding it into another form. A
// reply is
//
//	uvarint count | (code str | id str | error str)*
//
// one entry per transaction in input order; code is empty on success,
// otherwise a Code* constant, and error is empty exactly when code is.
// str is uvarint(len) | bytes. Both frames are canonical: their decoders
// accept only what the encoders here write, trailing bytes refused.

// frameType is the content type of both frames.
const frameType = "application/octet-stream"

// frameLayout names the request frame in the 400 a malformed body gets.
const frameLayout = "want count | (len | tx)*, each tx in the chain's binary encoding"

// minFramedTx is the smallest framed transaction: a length byte and the
// chain's smallest encoding, one byte for each of its eight fields.
const minFramedTx = 1 + 8

// appendBatch frames transactions as a POST /submit-batch body.
func appendBatch(b []byte, txs []chain.Tx) []byte {
	b = binary.AppendUvarint(b, uint64(len(txs)))
	var enc []byte
	for i := range txs {
		enc = chain.AppendTx(enc[:0], &txs[i])
		b = wire.AppendBytes(b, enc)
	}
	return b
}

// checkBatch is the server's side of the request frame: every
// transaction checked against the wire rules where it sits in body, and
// handed back as a sub-slice of it, so nothing is allocated per
// transaction. A count that the body is too short to hold is refused
// before anything is sized from it.
func checkBatch(body []byte) ([][]byte, error) {
	r := wire.NewReader(body)
	n := r.Count(minFramedTx)
	switch {
	case !r.OK():
		return nil, fmt.Errorf("malformed batch frame: bad count; %s", frameLayout)
	case n == 0:
		return nil, errors.New("empty batch")
	case n > MaxBatchTxs:
		return nil, fmt.Errorf("batch of %d txs (limit %d)", n, MaxBatchTxs)
	}
	txs := make([][]byte, n)
	for i := range txs {
		enc := r.Bytes()
		if !r.OK() {
			return nil, fmt.Errorf("malformed batch frame: tx %d overruns the body; %s", i, frameLayout)
		}
		v, ok := chain.ViewTx(enc)
		if !ok {
			return nil, fmt.Errorf("malformed batch frame: tx %d is not a transaction in the chain's encoding; %s", i, frameLayout)
		}
		if err := checkTx(&v); err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		txs[i] = enc
	}
	if !r.Done() {
		return nil, fmt.Errorf("malformed batch frame: trailing bytes after %d txs; %s", n, frameLayout)
	}
	return txs, nil
}

// checkTx holds a transaction read in place to the rules Tx.Validate
// applies to a JSON one. The chain encoding can also spell the
// coordinator's cross-shard phases and private puts; none of that
// crosses the wire.
func checkTx(v *chain.TxView) error {
	if _, ok := kindName(v.Kind); !ok {
		return fmt.Errorf("kind %d is not put, put-once or delete", v.Kind)
	}
	if len(v.Collection) != 0 || len(v.XID) != 0 || len(v.Hash) != 0 || v.NWrites != 0 {
		return errors.New("collection, xid, value hash and writes are not wire fields")
	}
	return checkFields(v.Kind, v.ID, v.Key, v.Value)
}

// appendResults frames a reply from the chain's results, in input order:
// an error's code and message, none on success. Duplicate is not sent: it
// is Code.
func appendResults(b []byte, results []chain.Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(results)))
	for _, r := range results {
		var code, msg string
		if r.Err != nil {
			code, msg = codeOf(r.Err), r.Err.Error()
		}
		b = appendEntry(b, code, r.TxID, msg)
	}
	return b
}

// appendEntry frames one reply entry.
func appendEntry(b []byte, code, id, msg string) []byte {
	b = wire.AppendString(b, code)
	b = wire.AppendString(b, id)
	return wire.AppendString(b, msg)
}

// decodeResults is the client's side of the reply frame: want entries,
// each with an error message exactly when its code is set. A code this
// package does not define is passed through, not refused: the server has
// already acted on the batch, and an unknown code maps to no sentinel.
func decodeResults(b []byte, want int) ([]BatchResult, error) {
	r := wire.NewReader(b)
	// An entry is at least its three length bytes.
	if n := r.Count(3); !r.OK() || n != want {
		return nil, fmt.Errorf("api: submit-batch reply holds %d results for %d txs", n, want)
	}
	out := make([]BatchResult, want)
	for i := range out {
		code, id, msg := r.String(), r.String(), r.String()
		if !r.OK() {
			break
		}
		if (code == "") != (msg == "") {
			return nil, fmt.Errorf("api: submit-batch reply entry %d: code %q with error %q", i, code, msg)
		}
		out[i] = BatchResult{TxID: id, Duplicate: code == CodeDuplicate, Code: code, Error: msg}
	}
	if !r.Done() {
		return nil, errors.New("api: malformed submit-batch reply")
	}
	return out, nil
}
