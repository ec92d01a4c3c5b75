// Package ledger implements a centralized ledger database in the style of
// Amazon QLDB / Alibaba LedgerDB: an append-only, hash-chained journal of
// state changes covered by a Merkle log, with a materialized current-state
// view, cryptographic digests, and audit proofs.
//
// This is PReVer's integrity substrate for single-database settings
// (Research Challenge 4): a data owner who outsources data to an untrusted
// manager periodically saves a Digest; later, any participant can demand an
// inclusion proof that a given update is in the journal and a consistency
// proof that the journal they trusted is a prefix of the current one.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/merkle"
	"prever/internal/store"
)

// OpKind is the kind of state change an entry records. The journal
// records one kind, PUT; the field stays in every entry and its hash so
// the entry encoding is unchanged.
type OpKind uint8

// OpPut is the journal's one operation kind.
const OpPut OpKind = 1

// String names the operation kind.
func (k OpKind) String() string {
	if k == OpPut {
		return "PUT"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Entry is one immutable journal record. PrevHash chains entries so that
// rewriting any prefix invalidates everything after it, independently of
// the Merkle log (defense in depth, mirroring QLDB's journal blocks).
type Entry struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      OpKind    `json:"kind"`
	Key       string    `json:"key"`
	Value     []byte    `json:"value,omitempty"`
	Author    string    `json:"author,omitempty"` // data producer / manager identity
	TxID      string    `json:"txid,omitempty"`   // application transaction id
	PrevHash  [32]byte  `json:"prev"`
	EntryHash [32]byte  `json:"hash"` // hash over all fields above
}

// computeHash hashes every field except EntryHash itself. It is the
// entry's one canonical encoding: the hash chain links it and the Merkle
// log takes it as the entry's leaf data, as QLDB's journal does, so every
// check that recomputes it covers both.
func (e *Entry) computeHash() [32]byte {
	h := sha256.New()
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], e.Seq)
	h.Write(seq[:])
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(e.Time.UnixNano()))
	h.Write(ts[:])
	h.Write([]byte{byte(e.Kind)})
	writeLenPrefixed(h, []byte(e.Key))
	writeLenPrefixed(h, e.Value)
	writeLenPrefixed(h, []byte(e.Author))
	writeLenPrefixed(h, []byte(e.TxID))
	h.Write(e.PrevHash[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// Digest is a verifiable summary of the journal at a point in time. A
// relying party stores digests out of band and later checks proofs against
// them.
type Digest struct {
	Size int         `json:"size"`
	Root merkle.Hash `json:"root"`
	Tip  [32]byte    `json:"tip"` // hash of the last entry (chain head)
}

// Receipt is returned from Put: enough for the producer to later prove
// the update was incorporated.
type Receipt struct {
	Seq       uint64
	EntryHash [32]byte
	Digest    Digest
}

// Ledger is the centralized ledger database. Safe for concurrent use.
type Ledger struct {
	mu      sync.RWMutex
	entries []Entry
	tree    *merkle.Tree
	state   *store.KV        // materialized current state
	clock   func() time.Time // time.Now; tests in this package pin it
}

// New creates an empty ledger.
func New() *Ledger {
	return &Ledger{
		tree:  merkle.New(),
		state: store.NewKV(),
		clock: time.Now,
	}
}

// Size returns the number of journal entries.
func (l *Ledger) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Put appends a PUT entry setting key to value and returns a receipt.
func (l *Ledger) Put(key string, value []byte, author, txID string) (Receipt, error) {
	if key == "" {
		return Receipt{}, errors.New("ledger: empty key")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:    uint64(len(l.entries)),
		Time:   l.clock(),
		Kind:   OpPut,
		Key:    key,
		Value:  append(make([]byte, 0, len(value)), value...),
		Author: author,
		TxID:   txID,
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.entries[len(l.entries)-1].EntryHash
	}
	e.EntryHash = e.computeHash()
	l.entries = append(l.entries, e)
	l.tree.Append(e.EntryHash[:])
	l.state.Put(key, e.Value)
	return Receipt{
		Seq:       e.Seq,
		EntryHash: e.EntryHash,
		Digest:    l.digestLocked(),
	}, nil
}

// Get reads the current state for key.
func (l *Ledger) Get(key string) ([]byte, error) {
	return l.state.Get(key)
}

// Range calls fn for each key of the current state and its value, in key
// order, stopping early if fn returns false.
func (l *Ledger) Range(fn func(key string, value []byte) bool) {
	l.state.Range(fn)
}

// Export returns a copy of the whole journal, for auditors and replication.
func (l *Ledger) Export() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Entry, len(l.entries))
	for i, e := range l.entries {
		out[i] = cloneEntry(e)
	}
	return out
}

func cloneEntry(e Entry) Entry {
	cp := e
	if e.Value != nil {
		cp.Value = make([]byte, len(e.Value))
		copy(cp.Value, e.Value)
	}
	return cp
}

// Digest returns the current verifiable digest.
func (l *Ledger) Digest() Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.digestLocked()
}

func (l *Ledger) digestLocked() Digest {
	d := Digest{Size: len(l.entries), Root: l.tree.RootAt(len(l.entries))}
	if len(l.entries) > 0 {
		d.Tip = l.entries[len(l.entries)-1].EntryHash
	}
	return d
}

// InclusionProof bundles a journal entry with its Merkle inclusion proof.
type InclusionProof struct {
	Entry Entry
	Proof merkle.InclusionProof
}

// ProveInclusion proves entry seq is included under the digest of the given
// size (size 0 means the current size).
func (l *Ledger) ProveInclusion(seq uint64, size int) (InclusionProof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if size == 0 {
		size = len(l.entries)
	}
	if seq >= uint64(size) {
		return InclusionProof{}, fmt.Errorf("ledger: seq %d not covered by digest of size %d", seq, size)
	}
	p, err := l.tree.ProveInclusion(int(seq), size)
	if err != nil {
		return InclusionProof{}, err
	}
	return InclusionProof{Entry: cloneEntry(l.entries[seq]), Proof: p}, nil
}

// VerifyInclusion checks an inclusion proof against a trusted digest. It
// also rechecks the entry's own hash so a manager cannot substitute entry
// contents while keeping a valid Merkle path for the original.
func VerifyInclusion(p InclusionProof, d Digest) error {
	if p.Proof.TreeSize != d.Size {
		return fmt.Errorf("ledger: proof is for size %d, digest has size %d", p.Proof.TreeSize, d.Size)
	}
	if p.Entry.computeHash() != p.Entry.EntryHash {
		return errors.New("ledger: entry hash mismatch (contents substituted)")
	}
	return merkle.VerifyInclusion(p.Proof, p.Entry.EntryHash[:], d.Root)
}

// ProveConsistency proves that the journal at oldSize (an earlier digest a
// relying party holds) is a prefix of the journal at newSize (0 = current).
func (l *Ledger) ProveConsistency(oldSize, newSize int) (merkle.ConsistencyProof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if newSize == 0 {
		newSize = len(l.entries)
	}
	return l.tree.ProveConsistency(oldSize, newSize)
}

// VerifyConsistency checks that newDigest extends oldDigest.
func VerifyConsistency(p merkle.ConsistencyProof, oldDigest, newDigest Digest) error {
	if p.OldSize != oldDigest.Size || p.NewSize != newDigest.Size {
		return errors.New("ledger: proof sizes do not match digests")
	}
	return merkle.VerifyConsistency(p, oldDigest.Root, newDigest.Root)
}

// AuditReport summarizes a full-journal audit.
type AuditReport struct {
	Entries   int
	FirstBad  int  // index of first corrupted entry, -1 if clean
	ChainOK   bool // PrevHash / EntryHash chain intact
	MerkleOK  bool // recomputed Merkle root matches the digest
	DigestOK  bool // digest tip matches the last entry
	TamperErr error
}

// Clean reports whether the audit found no corruption.
func (r AuditReport) Clean() bool {
	return r.ChainOK && r.MerkleOK && r.DigestOK && r.FirstBad < 0
}

// Audit re-verifies an exported journal against a trusted digest: entry
// hashes, the hash chain, the Merkle root, and the digest tip. It is a
// standalone function so auditors run it over exported data without
// trusting the ledger process (and so tests can exercise tamper detection
// by corrupting the export).
func Audit(entries []Entry, d Digest) AuditReport {
	r := AuditReport{Entries: len(entries), FirstBad: -1, ChainOK: true}
	if len(entries) != d.Size {
		r.ChainOK = false
		r.TamperErr = fmt.Errorf("ledger: journal has %d entries, digest covers %d", len(entries), d.Size)
		return r
	}
	var prev [32]byte
	tree := merkle.New()
	for i := range entries {
		e := &entries[i]
		if e.Seq != uint64(i) {
			r.FirstBad, r.ChainOK = i, false
			r.TamperErr = fmt.Errorf("ledger: entry %d has seq %d", i, e.Seq)
			return r
		}
		if e.PrevHash != prev {
			r.FirstBad, r.ChainOK = i, false
			r.TamperErr = fmt.Errorf("ledger: entry %d breaks the hash chain", i)
			return r
		}
		if e.computeHash() != e.EntryHash {
			r.FirstBad, r.ChainOK = i, false
			r.TamperErr = fmt.Errorf("ledger: entry %d content does not match its hash", i)
			return r
		}
		prev = e.EntryHash
		tree.Append(e.EntryHash[:])
	}
	r.MerkleOK = tree.Root() == d.Root || d.Size == 0
	if d.Size == 0 {
		r.MerkleOK = merkle.EmptyRoot() == d.Root
	}
	r.DigestOK = d.Size == 0 || prev == d.Tip
	if !r.MerkleOK && r.TamperErr == nil {
		r.TamperErr = errors.New("ledger: Merkle root mismatch")
	}
	if !r.DigestOK && r.TamperErr == nil {
		r.TamperErr = errors.New("ledger: digest tip mismatch")
	}
	return r
}
