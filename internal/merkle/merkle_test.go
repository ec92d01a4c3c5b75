package merkle

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func leafData(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func buildTree(n int) *Tree {
	t := New()
	for i := 0; i < n; i++ {
		t.Append(leafData(i))
	}
	return t
}

func TestEmptyRoot(t *testing.T) {
	tr := New()
	if tr.Size() != 0 {
		t.Fatalf("empty tree size = %d", tr.Size())
	}
	if tr.Root() != EmptyRoot() {
		t.Fatalf("empty tree root mismatch")
	}
}

func TestSingleLeafRootIsLeafHash(t *testing.T) {
	tr := New()
	tr.Append([]byte("hello"))
	if tr.Root() != HashLeaf([]byte("hello")) {
		t.Fatalf("single-leaf root should equal the leaf hash")
	}
}

func TestLeafAndNodeDomainsDiffer(t *testing.T) {
	data := []byte("x")
	var asNode Hash
	copy(asNode[:], data)
	if HashLeaf(data) == HashChildren(asNode, asNode) {
		t.Fatalf("leaf and node hashing must be domain separated")
	}
}

func TestRootChangesOnAppend(t *testing.T) {
	tr := New()
	seen := map[Hash]bool{tr.Root(): true}
	for i := 0; i < 20; i++ {
		tr.Append(leafData(i))
		r := tr.Root()
		if seen[r] {
			t.Fatalf("root repeated after append %d", i)
		}
		seen[r] = true
	}
}

func TestRootAtMatchesIncrementalRoots(t *testing.T) {
	const n = 33
	tr := New()
	var roots []Hash
	for i := 0; i < n; i++ {
		tr.Append(leafData(i))
		roots = append(roots, tr.Root())
	}
	for i := 1; i <= n; i++ {
		if tr.RootAt(i) != roots[i-1] {
			t.Fatalf("RootAt(%d) does not match the root observed at that size", i)
		}
	}
}

func TestLeafHashAccessor(t *testing.T) {
	tr := buildTree(5)
	h, err := tr.LeafHash(3)
	if err != nil {
		t.Fatal(err)
	}
	if h != HashLeaf(leafData(3)) {
		t.Fatalf("LeafHash(3) mismatch")
	}
	if _, err := tr.LeafHash(5); err == nil {
		t.Fatalf("LeafHash out of range should error")
	}
	if _, err := tr.LeafHash(-1); err == nil {
		t.Fatalf("LeafHash(-1) should error")
	}
}

func TestInclusionAllSizesAllLeaves(t *testing.T) {
	const maxN = 40
	tr := buildTree(maxN)
	for n := 1; n <= maxN; n++ {
		root := tr.RootAt(n)
		for i := 0; i < n; i++ {
			p, err := tr.ProveInclusion(i, n)
			if err != nil {
				t.Fatalf("ProveInclusion(%d,%d): %v", i, n, err)
			}
			if err := VerifyInclusion(p, leafData(i), root); err != nil {
				t.Fatalf("VerifyInclusion(%d,%d): %v", i, n, err)
			}
		}
	}
}

func TestInclusionRejectsWrongLeaf(t *testing.T) {
	tr := buildTree(16)
	p, err := tr.ProveInclusion(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(p, leafData(5), tr.Root()); err == nil {
		t.Fatalf("proof for leaf 4 verified against leaf 5 data")
	}
}

func TestInclusionRejectsWrongRoot(t *testing.T) {
	tr := buildTree(16)
	p, _ := tr.ProveInclusion(4, 16)
	bad := tr.Root()
	bad[0] ^= 1
	if err := VerifyInclusion(p, leafData(4), bad); err == nil {
		t.Fatalf("proof verified against corrupted root")
	}
}

func TestInclusionRejectsTamperedPath(t *testing.T) {
	tr := buildTree(16)
	p, _ := tr.ProveInclusion(4, 16)
	if len(p.Path) == 0 {
		t.Fatal("expected non-empty path")
	}
	p.Path[0][0] ^= 1
	if err := VerifyInclusion(p, leafData(4), tr.Root()); err == nil {
		t.Fatalf("proof with tampered path verified")
	}
}

func TestInclusionRejectsTruncatedPath(t *testing.T) {
	tr := buildTree(16)
	p, _ := tr.ProveInclusion(4, 16)
	p.Path = p.Path[:len(p.Path)-1]
	if err := VerifyInclusion(p, leafData(4), tr.Root()); err == nil {
		t.Fatalf("truncated proof verified")
	}
}

func TestInclusionRejectsBadIndices(t *testing.T) {
	tr := buildTree(8)
	if _, err := tr.ProveInclusion(8, 8); err == nil {
		t.Fatalf("leaf index == size should error")
	}
	if _, err := tr.ProveInclusion(0, 9); err == nil {
		t.Fatalf("size beyond tree should error")
	}
	if _, err := tr.ProveInclusion(-1, 8); err == nil {
		t.Fatalf("negative leaf index should error")
	}
	p := InclusionProof{LeafIndex: 2, TreeSize: 0}
	if err := VerifyInclusion(p, leafData(2), tr.Root()); err == nil {
		t.Fatalf("zero tree size proof verified")
	}
}

func TestConsistencyAllSizePairs(t *testing.T) {
	const maxN = 32
	tr := buildTree(maxN)
	for m := 1; m <= maxN; m++ {
		for n := m; n <= maxN; n++ {
			p, err := tr.ProveConsistency(m, n)
			if err != nil {
				t.Fatalf("ProveConsistency(%d,%d): %v", m, n, err)
			}
			if err := VerifyConsistency(p, tr.RootAt(m), tr.RootAt(n)); err != nil {
				t.Fatalf("VerifyConsistency(%d,%d): %v", m, n, err)
			}
		}
	}
}

func TestConsistencyRejectsForkedHistory(t *testing.T) {
	// Build two trees sharing a 10-leaf prefix, then diverging.
	a := buildTree(20)
	b := New()
	for i := 0; i < 10; i++ {
		b.Append(leafData(i))
	}
	for i := 10; i < 20; i++ {
		b.Append([]byte(fmt.Sprintf("forked-%d", i)))
	}
	p, err := a.ProveConsistency(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Proof from history A must not link A's old root to B's new root.
	if err := VerifyConsistency(p, a.RootAt(10), b.Root()); err == nil {
		t.Fatalf("consistency proof verified against a forked history")
	}
}

func TestConsistencyRejectsTamperedPath(t *testing.T) {
	tr := buildTree(20)
	p, _ := tr.ProveConsistency(7, 20)
	if len(p.Path) == 0 {
		t.Fatal("expected non-empty consistency path")
	}
	p.Path[0][0] ^= 1
	if err := VerifyConsistency(p, tr.RootAt(7), tr.Root()); err == nil {
		t.Fatalf("tampered consistency proof verified")
	}
}

func TestConsistencySameSize(t *testing.T) {
	tr := buildTree(9)
	p, err := tr.ProveConsistency(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Path) != 0 {
		t.Fatalf("same-size consistency proof should be empty, got %d elements", len(p.Path))
	}
	if err := VerifyConsistency(p, tr.Root(), tr.Root()); err != nil {
		t.Fatal(err)
	}
	other := buildTree(8)
	if err := VerifyConsistency(p, tr.Root(), other.Root()); err == nil {
		t.Fatalf("same-size proof with different roots verified")
	}
}

func TestConsistencyRejectsBadSizes(t *testing.T) {
	tr := buildTree(8)
	if _, err := tr.ProveConsistency(0, 8); err == nil {
		t.Fatalf("m=0 should error")
	}
	if _, err := tr.ProveConsistency(5, 9); err == nil {
		t.Fatalf("n beyond tree should error")
	}
	if _, err := tr.ProveConsistency(6, 5); err == nil {
		t.Fatalf("m>n should error")
	}
}

func TestAppendLeafHashEquivalence(t *testing.T) {
	a := New()
	b := New()
	for i := 0; i < 11; i++ {
		a.Append(leafData(i))
		b.AppendLeafHash(HashLeaf(leafData(i)))
	}
	if a.Root() != b.Root() {
		t.Fatalf("AppendLeafHash should produce the same tree as Append")
	}
}

// Property: for random tree sizes and leaf indices, inclusion proofs verify
// and fail against any other leaf's data.
func TestQuickInclusionRoundTrip(t *testing.T) {
	tr := buildTree(128)
	f := func(rawN uint16, rawI uint16) bool {
		n := int(rawN)%128 + 1
		i := int(rawI) % n
		p, err := tr.ProveInclusion(i, n)
		if err != nil {
			return false
		}
		if VerifyInclusion(p, leafData(i), tr.RootAt(n)) != nil {
			return false
		}
		wrong := (i + 1) % n
		if wrong != i && VerifyInclusion(p, leafData(wrong), tr.RootAt(n)) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: consistency proofs link any two sizes of the same history and
// reject swapped roots.
func TestQuickConsistencyRoundTrip(t *testing.T) {
	tr := buildTree(128)
	f := func(rawM, rawN uint16) bool {
		m := int(rawM)%128 + 1
		n := int(rawN)%128 + 1
		if m > n {
			m, n = n, m
		}
		p, err := tr.ProveConsistency(m, n)
		if err != nil {
			return false
		}
		if VerifyConsistency(p, tr.RootAt(m), tr.RootAt(n)) != nil {
			return false
		}
		if m != n {
			// Swapping old and new roots must fail.
			if VerifyConsistency(p, tr.RootAt(n), tr.RootAt(m)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProofPathLengthIsLogarithmic(t *testing.T) {
	tr := buildTree(1 << 10)
	p, err := tr.ProveInclusion(517, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Path) != 10 {
		t.Fatalf("path length for a 1024-leaf tree = %d, want 10", len(p.Path))
	}
}

func BenchmarkAppend(b *testing.B) {
	tr := New()
	data := leafData(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(data)
	}
}

func BenchmarkRoot4096(b *testing.B) {
	tr := buildTree(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Root()
	}
}

func BenchmarkProveInclusion4096(b *testing.B) {
	tr := buildTree(4096)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ProveInclusion(rng.Intn(4096), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyInclusion4096(b *testing.B) {
	tr := buildTree(4096)
	p, _ := tr.ProveInclusion(1234, 4096)
	root := tr.Root()
	data := leafData(1234)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyInclusion(p, data, root); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIncrementalRootMatchesRecursive(t *testing.T) {
	// The frontier-folded Root must equal the recursive RootAt at every
	// size — this pins the O(log n) fast path to the reference algorithm.
	tr := New()
	ref := New()
	for i := 0; i < 300; i++ {
		tr.Append(leafData(i))
		ref.Append(leafData(i))
		if tr.Root() != subtreeRootForTest(ref, i+1) {
			t.Fatalf("incremental root diverges at size %d", i+1)
		}
	}
}

// TestFrontierMatchesTree: the leaf-free fold gives the recursive
// reference root at every size, across a Reset, and allocates nothing per
// leaf once its scratch buffer has grown.
func TestFrontierMatchesTree(t *testing.T) {
	ref := New()
	var f Frontier
	for round := 0; round < 2; round++ {
		f.Reset()
		if f.Root() != EmptyRoot() || f.Size() != 0 {
			t.Fatalf("round %d: reset frontier is not the empty tree", round)
		}
		for i := 0; i < 300; i++ {
			if round == 0 {
				ref.Append(leafData(i))
			}
			f.Add(leafData(i))
			if f.Size() != i+1 || f.Root() != subtreeRootForTest(ref, i+1) {
				t.Fatalf("round %d: frontier diverges at size %d", round, i+1)
			}
		}
	}
	data := leafData(7)
	if n := testing.AllocsPerRun(100, func() { f.Add(data); _ = f.Root() }); n != 0 {
		t.Fatalf("Add+Root allocates %.0f times per leaf", n)
	}
}

// subtreeRootForTest computes the reference (recursive) root.
func subtreeRootForTest(t *Tree, n int) Hash {
	if n == 0 {
		return EmptyRoot()
	}
	return subtreeRoot(t.leaves[:n])
}

func BenchmarkIncrementalAppendAndRoot(b *testing.B) {
	tr := New()
	data := leafData(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(data)
		_ = tr.Root()
	}
}
