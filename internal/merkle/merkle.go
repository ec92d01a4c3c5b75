// Package merkle implements an append-only Merkle log in the style of
// RFC 6962 (Certificate Transparency). It provides the authenticated data
// structure PReVer relies on for the integrity of stored data (Research
// Challenge 4): a log with O(log n) inclusion proofs ("this entry is in the
// ledger") and consistency proofs ("the ledger at size m is a prefix of the
// ledger at size n").
//
// Hashing uses SHA-256 with domain separation between leaves and interior
// nodes so that a leaf can never be confused with a node (second-preimage
// resistance of the tree structure).
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
)

// HashSize is the size in bytes of every hash produced by this package.
const HashSize = sha256.Size

// Hash is a fixed-size tree hash.
type Hash [HashSize]byte

// String renders the first 8 bytes in hex, enough to eyeball digests in logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// HashLeaf hashes a leaf entry with the leaf domain prefix.
func HashLeaf(data []byte) Hash {
	s := sha256.New()
	s.Write([]byte{leafPrefix})
	s.Write(data)
	var h Hash
	s.Sum(h[:0])
	return h
}

// HashChildren hashes two interior children with the node domain prefix.
func HashChildren(left, right Hash) Hash {
	var b [1 + 2*HashSize]byte
	b[0] = nodePrefix
	copy(b[1:], left[:])
	copy(b[1+HashSize:], right[:])
	return sha256.Sum256(b[:])
}

// EmptyRoot is the root hash of an empty tree: SHA-256 of the empty string,
// matching RFC 6962.
func EmptyRoot() Hash {
	return sha256.Sum256(nil)
}

// Tree is an append-only Merkle tree over opaque byte entries. The zero
// value is an empty tree ready for use. Tree is not safe for concurrent use;
// callers (the ledger, the blockchain) serialize access.
//
// Alongside the full leaf list (needed for proofs), the tree maintains a
// Frontier so that the current root costs O(log n) instead of O(n) — the
// property that keeps ledger appends fast.
type Tree struct {
	leaves   []Hash
	frontier Frontier
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Append adds an entry and returns its leaf index.
func (t *Tree) Append(data []byte) int {
	return t.AppendLeafHash(HashLeaf(data))
}

// AppendLeafHash adds a pre-hashed leaf. Used when the caller stores entries
// elsewhere and only tracks their hashes.
func (t *Tree) AppendLeafHash(h Hash) int {
	t.leaves = append(t.leaves, h)
	t.frontier.addHash(h)
	return len(t.leaves) - 1
}

// Root returns the root hash over all current leaves in O(log n).
func (t *Tree) Root() Hash { return t.frontier.Root() }

// Frontier folds leaves into the root Tree would give them without
// keeping any: only the perfect-subtree roots on the right edge, in a
// fixed array indexed by height, so a root over n leaves costs no
// allocation per leaf and retains nothing. It answers no proofs — a
// caller that needs one rebuilds a Tree from the entries it stored. The
// zero value is an empty tree.
type Frontier struct {
	n     uint64
	roots [64]Hash // roots[i] is live iff bit i of n is set: a subtree of 2^i leaves
	buf   []byte   // prefix | leaf, reused across Add calls
}

// Reset empties the frontier, keeping its scratch buffer.
func (f *Frontier) Reset() { f.n = 0 }

// Size returns the number of leaves added.
func (f *Frontier) Size() int { return int(f.n) }

// Add appends one entry. data is not retained.
func (f *Frontier) Add(data []byte) {
	f.buf = append(append(f.buf[:0], leafPrefix), data...)
	f.addHash(sha256.Sum256(f.buf))
}

// addHash appends one pre-hashed leaf.
func (f *Frontier) addHash(h Hash) {
	// A binary counter: adding a leaf carries through every trailing set
	// bit, merging equal-sized subtrees on the way up.
	i := 0
	for ; f.n>>i&1 == 1; i++ {
		h = HashChildren(f.roots[i], h)
	}
	f.roots[i] = h
	f.n++
}

// Root returns the root over the leaves added so far, folding the
// subtrees smallest first (RFC 6962's unbalanced combination).
func (f *Frontier) Root() Hash {
	if f.n == 0 {
		return EmptyRoot()
	}
	i := bits.TrailingZeros64(f.n)
	acc := f.roots[i]
	for i++; f.n>>i != 0; i++ {
		if f.n>>i&1 == 1 {
			acc = HashChildren(f.roots[i], acc)
		}
	}
	return acc
}

// RootAt returns the root hash of the first n leaves (the tree as it was
// when it had size n). RootAt(0) is EmptyRoot; RootAt(Size()) is Root().
// Historic roots (n < Size()) cost O(n). Panics if n is out of range.
func (t *Tree) RootAt(n int) Hash {
	if n < 0 || n > len(t.leaves) {
		panic(fmt.Sprintf("merkle: RootAt(%d) out of range [0,%d]", n, len(t.leaves)))
	}
	if n == 0 {
		return EmptyRoot()
	}
	if n == len(t.leaves) {
		return t.Root()
	}
	return subtreeRoot(t.leaves[:n])
}

// subtreeRoot computes the RFC 6962 root of a non-empty span of leaves:
// split at the largest power of two strictly less than len(leaves).
func subtreeRoot(leaves []Hash) Hash {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	return HashChildren(subtreeRoot(leaves[:k]), subtreeRoot(leaves[k:]))
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n, for n >= 2.
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// InclusionProof is an audit path proving a leaf is included under a root.
type InclusionProof struct {
	LeafIndex int    // index of the proven leaf
	TreeSize  int    // size of the tree the proof is against
	Path      []Hash // sibling hashes from leaf to root
}

// ErrProofInvalid is returned by the verification helpers when a proof does
// not check out against the claimed root.
var ErrProofInvalid = errors.New("merkle: proof verification failed")

// ProveInclusion builds an inclusion proof for leaf index i against the tree
// of the first n leaves.
func (t *Tree) ProveInclusion(i, n int) (InclusionProof, error) {
	if n < 1 || n > len(t.leaves) {
		return InclusionProof{}, fmt.Errorf("merkle: tree size %d out of range [1,%d]", n, len(t.leaves))
	}
	if i < 0 || i >= n {
		return InclusionProof{}, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", i, n)
	}
	path := inclusionPath(i, t.leaves[:n])
	return InclusionProof{LeafIndex: i, TreeSize: n, Path: path}, nil
}

func inclusionPath(i int, leaves []Hash) []Hash {
	if len(leaves) == 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(len(leaves))
	if i < k {
		path := inclusionPath(i, leaves[:k])
		return append(path, subtreeRoot(leaves[k:]))
	}
	path := inclusionPath(i-k, leaves[k:])
	return append(path, subtreeRoot(leaves[:k]))
}

// VerifyInclusion checks that leafData is the LeafIndex-th entry of the tree
// of size TreeSize whose root is root.
func VerifyInclusion(proof InclusionProof, leafData []byte, root Hash) error {
	return VerifyInclusionHash(proof, HashLeaf(leafData), root)
}

// VerifyInclusionHash is VerifyInclusion for callers that already hold the
// leaf hash. The proof path was built by recursive descent (siblings
// appended leaf-to-root), so verification replays the same descent to learn
// the left/right decision at each level, then folds the path bottom-up.
func VerifyInclusionHash(proof InclusionProof, leaf Hash, root Hash) error {
	if proof.LeafIndex < 0 || proof.TreeSize < 1 || proof.LeafIndex >= proof.TreeSize {
		return ErrProofInvalid
	}
	type frame struct {
		idx, size int
	}
	var frames []frame
	idx, size := proof.LeafIndex, proof.TreeSize
	for size > 1 {
		frames = append(frames, frame{idx, size})
		k := largestPowerOfTwoBelow(size)
		if idx < k {
			size = k
		} else {
			idx -= k
			size -= k
		}
	}
	if len(frames) != len(proof.Path) {
		return ErrProofInvalid
	}
	h := leaf
	for level := len(frames) - 1; level >= 0; level-- {
		f := frames[level]
		k := largestPowerOfTwoBelow(f.size)
		sib := proof.Path[len(frames)-1-level]
		if f.idx < k {
			h = HashChildren(h, sib)
		} else {
			h = HashChildren(sib, h)
		}
	}
	if h != root {
		return ErrProofInvalid
	}
	return nil
}

// ConsistencyProof proves that the tree of size OldSize is a prefix of the
// tree of size NewSize.
type ConsistencyProof struct {
	OldSize int
	NewSize int
	Path    []Hash
}

// ProveConsistency builds a consistency proof between the tree at size m and
// the tree at size n (m <= n <= Size()).
func (t *Tree) ProveConsistency(m, n int) (ConsistencyProof, error) {
	if m < 1 || n > len(t.leaves) || m > n {
		return ConsistencyProof{}, fmt.Errorf("merkle: consistency sizes (%d,%d) out of range (size %d)", m, n, len(t.leaves))
	}
	path := consistencyPath(m, t.leaves[:n], true)
	return ConsistencyProof{OldSize: m, NewSize: n, Path: path}, nil
}

// consistencyPath implements RFC 6962 SUBPROOF. completeSubtree reports
// whether the old tree is a complete subtree at this recursion level (in
// which case its root is known to the verifier and omitted).
func consistencyPath(m int, leaves []Hash, completeSubtree bool) []Hash {
	n := len(leaves)
	if m == n {
		if completeSubtree {
			return nil
		}
		return []Hash{subtreeRoot(leaves)}
	}
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		path := consistencyPath(m, leaves[:k], completeSubtree)
		return append(path, subtreeRoot(leaves[k:]))
	}
	path := consistencyPath(m-k, leaves[k:], false)
	return append(path, subtreeRoot(leaves[:k]))
}

// VerifyConsistency checks that oldRoot (at OldSize) is consistent with
// newRoot (at NewSize) given the proof.
func VerifyConsistency(proof ConsistencyProof, oldRoot, newRoot Hash) error {
	m, n := proof.OldSize, proof.NewSize
	if m < 1 || m > n {
		return ErrProofInvalid
	}
	if m == n {
		if len(proof.Path) != 0 || oldRoot != newRoot {
			return ErrProofInvalid
		}
		return nil
	}
	// Walk the same recursion as consistencyPath, consuming the path in
	// reverse (it was appended on the way back up).
	type frame struct {
		m, n     int
		complete bool
	}
	var frames []frame
	fm, fn, complete := m, n, true
	for fm != fn {
		frames = append(frames, frame{fm, fn, complete})
		k := largestPowerOfTwoBelow(fn)
		if fm <= k {
			fn = k
		} else {
			fm -= k
			fn -= k
			complete = false
		}
	}
	// At the base: if complete, the verifier seeds with oldRoot; otherwise
	// the first path element is the base subtree root.
	pathLen := len(frames)
	if !complete {
		pathLen++
	}
	if len(proof.Path) != pathLen {
		return ErrProofInvalid
	}
	// Siblings were appended on the recursion's unwind, so Path (after the
	// optional base element) is ordered deepest level first.
	var oldH, newH Hash
	pos := 0
	if complete {
		oldH, newH = oldRoot, oldRoot
	} else {
		oldH, newH = proof.Path[0], proof.Path[0]
		pos = 1
	}
	for level := len(frames) - 1; level >= 0; level-- {
		f := frames[level]
		k := largestPowerOfTwoBelow(f.n)
		sib := proof.Path[pos]
		pos++
		if f.m <= k {
			// Old tree lives entirely in the left child; sibling is the
			// right child's root, present only in the new tree.
			newH = HashChildren(newH, sib)
		} else {
			// Old tree spans the complete left child (root = sib) plus a
			// prefix of the right child.
			oldH = HashChildren(sib, oldH)
			newH = HashChildren(sib, newH)
		}
	}
	if oldH != oldRoot || newH != newRoot {
		return ErrProofInvalid
	}
	return nil
}
