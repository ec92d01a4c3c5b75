// Package wire holds the primitives every binary codec on the replicated
// write path is built from (chain's transaction, mempool's batch frame,
// pbft's envelope and normal-case messages): uvarint-prefixed fields
// appended to a byte slice, and a strict Reader that consumes them.
//
// The encodings are canonical — one byte string per value — because the
// encoded transaction is the Merkle leaf and the encoded request is what
// the consensus digest covers: a second spelling of the same value would
// be a second hash. So the Reader rejects what encoding/binary tolerates
// (a uvarint padded with a trailing zero byte) along with short input,
// and Done rejects trailing bytes.
package wire

import "encoding/binary"

// AppendBytes appends p as uvarint(len) | bytes.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s as uvarint(len) | bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Reader consumes fields from a buffer. The first malformed field makes
// every later call return a zero value and Done report false, so a
// decoder reads all its fields and checks once.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads from b. Bytes and Fixed return sub-slices of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports whether every field decoded and no byte is left over.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }

// OK reports whether every field so far decoded.
func (r *Reader) OK() bool { return !r.bad }

// Len reports how many bytes are left to read.
func (r *Reader) Len() int { return len(r.b) }

// Fail marks the input malformed (a decoder's own range check failed).
func (r *Reader) Fail() { r.bad = true }

// Uvarint reads one minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Fixed reads exactly n bytes.
func (r *Reader) Fixed(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Bytes reads one uvarint(len) | bytes field; a zero length reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.Fixed(int(n))
}

// String reads one uvarint(len) | bytes field into a fresh string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads an element count and bounds it by what the rest of the
// input could hold at minEach bytes per element, so a forged count never
// sizes an allocation beyond a multiple of the input.
func (r *Reader) Count(minEach int) int {
	n := r.Uvarint()
	if r.bad || n > uint64(len(r.b)/minEach) {
		r.bad = true
		return 0
	}
	return int(n)
}
