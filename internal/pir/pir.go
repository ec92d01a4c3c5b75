// Package pir implements two-server information-theoretic private
// information retrieval (Chor–Goldreich–Kushilevitz–Sudan style) with
// update support. It is PReVer's substrate for Research Challenge 3:
// public data (e.g. the list of in-person conference participants) that
// clients must read — and the framework must verify constraints against —
// without revealing WHICH rows they touch.
//
// The database is replicated on two non-colluding servers. To fetch block
// i of n, the client sends a uniformly random subset q0 ⊆ [n] to server 0
// and q1 = q0 Δ {i} to server 1; each server returns the XOR of its
// selected blocks, and the client XORs the two answers. Each server's view
// is a uniformly random subset, independent of i.
//
// Updates are public-data writes: the owner updates both replicas.
// (Private reads over public, updatable data is exactly the RC3 setting.)
package pir

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Server is one PIR replica holding fixed-size blocks.
type Server struct {
	mu        sync.RWMutex
	blockSize int
	blocks    [][]byte
}

// NewServer creates a replica with the given block size.
func NewServer(blockSize int) (*Server, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("pir: invalid block size %d", blockSize)
	}
	return &Server{blockSize: blockSize}, nil
}

// Size returns the number of blocks.
func (s *Server) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// SetBlock writes block i, growing the database with zero blocks as
// needed. Data longer than the block size is rejected; shorter data is
// zero-padded.
func (s *Server) SetBlock(i int, data []byte) error {
	if i < 0 {
		return fmt.Errorf("pir: negative block index %d", i)
	}
	if len(data) > s.blockSize {
		return fmt.Errorf("pir: data length %d exceeds block size %d", len(data), s.blockSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.blocks) <= i {
		s.blocks = append(s.blocks, make([]byte, s.blockSize))
	}
	blk := make([]byte, s.blockSize)
	copy(blk, data)
	s.blocks[i] = blk
	return nil
}

// Block returns a copy of block i (a public, non-private read).
func (s *Server) Block(i int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.blocks) {
		return nil, fmt.Errorf("pir: block %d out of range [0,%d)", i, len(s.blocks))
	}
	out := make([]byte, s.blockSize)
	copy(out, s.blocks[i])
	return out, nil
}

// Answer XORs together the blocks selected by the query bit-vector. The
// query must cover exactly the server's current size.
func (s *Server) Answer(query []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(query) != bitvecLen(len(s.blocks)) {
		return nil, fmt.Errorf("pir: query covers %d bytes, database needs %d", len(query), bitvecLen(len(s.blocks)))
	}
	out := make([]byte, s.blockSize)
	for i := range s.blocks {
		if bitSet(query, i) {
			xorInto(out, s.blocks[i])
		}
	}
	return out, nil
}

func bitvecLen(n int) int { return (n + 7) / 8 }

func bitSet(v []byte, i int) bool { return v[i/8]&(1<<(uint(i)%8)) != 0 }

func flipBit(v []byte, i int) { v[i/8] ^= 1 << (uint(i) % 8) }

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Query is a pair of server queries for one private read.
type Query struct {
	Index int    // the private index (kept by the client)
	Q0    []byte // to server 0
	Q1    []byte // to server 1
}

// NewQuery builds a private query for block index i of an n-block
// database.
func NewQuery(n, i int, rng io.Reader) (Query, error) {
	if i < 0 || i >= n {
		return Query{}, fmt.Errorf("pir: index %d out of range [0,%d)", i, n)
	}
	if rng == nil {
		rng = rand.Reader
	}
	q0 := make([]byte, bitvecLen(n))
	if _, err := io.ReadFull(rng, q0); err != nil {
		return Query{}, err
	}
	// Zero bits beyond n so both servers see identically-shaped vectors.
	if n%8 != 0 {
		q0[len(q0)-1] &= byte(1<<(uint(n)%8)) - 1
	}
	q1 := make([]byte, len(q0))
	copy(q1, q0)
	flipBit(q1, i)
	return Query{Index: i, Q0: q0, Q1: q1}, nil
}

// Combine reconstructs the private block from the two server answers.
func Combine(a0, a1 []byte) ([]byte, error) {
	if len(a0) != len(a1) {
		return nil, errors.New("pir: answer length mismatch")
	}
	out := make([]byte, len(a0))
	copy(out, a0)
	xorInto(out, a1)
	return out, nil
}

// Database bundles the two replicas with a consistent update path: the
// convenience layer the PReVer public-data manager uses.
type Database struct {
	s0, s1 *Server
}

// NewDatabase creates a replicated PIR database.
func NewDatabase(blockSize int) (*Database, error) {
	s0, err := NewServer(blockSize)
	if err != nil {
		return nil, err
	}
	s1, _ := NewServer(blockSize)
	return &Database{s0: s0, s1: s1}, nil
}

// Servers exposes the replicas (e.g. to place them at distinct data
// managers).
func (d *Database) Servers() (*Server, *Server) { return d.s0, d.s1 }

// Size returns the number of blocks.
func (d *Database) Size() int { return d.s0.Size() }

// Update writes block i on both replicas.
func (d *Database) Update(i int, data []byte) error {
	if err := d.s0.SetBlock(i, data); err != nil {
		return err
	}
	return d.s1.SetBlock(i, data)
}

// PrivateRead fetches block i without either server learning i.
func (d *Database) PrivateRead(i int, rng io.Reader) ([]byte, error) {
	n := d.Size()
	q, err := NewQuery(n, i, rng)
	if err != nil {
		return nil, err
	}
	a0, err := d.s0.Answer(q.Q0)
	if err != nil {
		return nil, err
	}
	a1, err := d.s1.Answer(q.Q1)
	if err != nil {
		return nil, err
	}
	return Combine(a0, a1)
}

// Consistent audits that the two replicas hold identical data (an owner
// integrity check after updates).
func (d *Database) Consistent() bool {
	d.s0.mu.RLock()
	defer d.s0.mu.RUnlock()
	//lint:ignore lockorder the two replicas are locked in the fixed s0-before-s1 order everywhere; no reverse path exists
	d.s1.mu.RLock()
	defer d.s1.mu.RUnlock()
	if len(d.s0.blocks) != len(d.s1.blocks) {
		return false
	}
	for i := range d.s0.blocks {
		//lint:ignore consttime owner-side audit comparing the owner's own replicas; timing is not attacker-observable
		if !bytes.Equal(d.s0.blocks[i], d.s1.blocks[i]) {
			return false
		}
	}
	return true
}
