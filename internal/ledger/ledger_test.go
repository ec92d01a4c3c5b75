package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"prever/internal/store"
)

func fixedClock() func() time.Time {
	t := time.Date(2022, 3, 29, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func newTestLedger() *Ledger {
	l := New()
	l.clock = fixedClock()
	return l
}

func fill(l *Ledger, n int) {
	for i := 0; i < n; i++ {
		if _, err := l.Put(fmt.Sprintf("k%03d", i%16), []byte(fmt.Sprintf("v%d", i)), "producer", fmt.Sprintf("tx%d", i)); err != nil {
			panic(err)
		}
	}
}

func TestAppendAndGet(t *testing.T) {
	l := newTestLedger()
	r, err := l.Put("a", []byte("1"), "alice", "tx1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 0 || r.Digest.Size != 1 {
		t.Fatalf("receipt = %+v", r)
	}
	got, err := l.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := l.Put("a", []byte("2"), "alice", "tx2"); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Get("a"); err != nil || string(got) != "2" {
		t.Fatalf("get after overwrite = %q, %v", got, err)
	}
	if _, err := l.Get("b"); err != store.ErrNotFound {
		t.Fatalf("get of an absent key = %v", err)
	}
	if l.Size() != 2 {
		t.Fatalf("size = %d", l.Size())
	}
}

func TestAppendValidation(t *testing.T) {
	l := newTestLedger()
	if _, err := l.Put("", []byte("v"), "", ""); err == nil {
		t.Fatal("empty key accepted")
	}
	if l.Size() != 0 {
		t.Fatalf("a refused put left %d entries", l.Size())
	}
}

// TestPutEntryHashesPinned: the entry encoding is a format (journals on
// disk and the digests relying parties keep are over it), so the tip
// and root of a fixed-clock ledger of six PUTs, the last with an empty
// value, are pinned.
func TestPutEntryHashesPinned(t *testing.T) {
	l := newTestLedger()
	fill(l, 5)
	if _, err := l.Put("empty", nil, "", ""); err != nil {
		t.Fatal(err)
	}
	d := l.Digest()
	const tip = "6ddf7413c8ea0f645a13728885b777bbca50c79a99d7808854ec56b4e98f3a47"
	const root = "8674de2bebc072038528695f6587bbfc84bc284d7c96d7532fddc9dd00cdd90e"
	if got := hex.EncodeToString(d.Tip[:]); got != tip {
		t.Errorf("tip = %s, want %s", got, tip)
	}
	if got := hex.EncodeToString(d.Root[:]); got != root {
		t.Errorf("root = %s, want %s", got, root)
	}
}

func TestHashChainLinks(t *testing.T) {
	l := newTestLedger()
	fill(l, 5)
	entries := l.Export()
	for i := 1; i < len(entries); i++ {
		if entries[i].PrevHash != entries[i-1].EntryHash {
			t.Fatalf("entry %d not chained to predecessor", i)
		}
	}
	if entries[0].PrevHash != ([32]byte{}) {
		t.Fatal("genesis entry should have zero PrevHash")
	}
}

func TestValueIsCopied(t *testing.T) {
	l := newTestLedger()
	buf := []byte("abc")
	l.Put("k", buf, "", "")
	buf[0] = 'X'
	e := l.Export()[0]
	if string(e.Value) != "abc" {
		t.Fatalf("ledger aliased caller buffer: %q", e.Value)
	}
	e.Value[0] = 'Y'
	if e2 := l.Export()[0]; string(e2.Value) != "abc" {
		t.Fatal("Export returned an aliased value")
	}
}

func TestInclusionProofRoundTrip(t *testing.T) {
	l := newTestLedger()
	fill(l, 30)
	d := l.Digest()
	for seq := uint64(0); seq < 30; seq++ {
		p, err := l.ProveInclusion(seq, 0)
		if err != nil {
			t.Fatalf("prove %d: %v", seq, err)
		}
		if err := VerifyInclusion(p, d); err != nil {
			t.Fatalf("verify %d: %v", seq, err)
		}
	}
}

func TestInclusionProofAgainstOldDigest(t *testing.T) {
	l := newTestLedger()
	fill(l, 10)
	oldDigest := l.Digest()
	fill(l, 10)
	p, err := l.ProveInclusion(3, oldDigest.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(p, oldDigest); err != nil {
		t.Fatalf("verify against old digest: %v", err)
	}
	// A proof sized for the old digest must not verify against the new one.
	if err := VerifyInclusion(p, l.Digest()); err == nil {
		t.Fatal("old-size proof verified against new digest")
	}
}

func TestInclusionRejectsSubstitutedEntry(t *testing.T) {
	l := newTestLedger()
	fill(l, 8)
	d := l.Digest()
	p, _ := l.ProveInclusion(2, 0)
	p.Entry.Value = []byte("forged")
	if err := VerifyInclusion(p, d); err == nil {
		t.Fatal("substituted entry contents verified")
	}
	// Forging the hash too must still fail (Merkle path breaks).
	p.Entry.EntryHash = p.Entry.computeHash()
	if err := VerifyInclusion(p, d); err == nil {
		t.Fatal("substituted entry with recomputed hash verified")
	}
}

// TestDigestRootIsRFC6962OverEntryHashes pins the journal's one canonical
// encoding: the Merkle leaves are the entries' recomputed hashes, so the
// digest root is RFC 6962's MTH over them, rebuilt here without the
// merkle package.
func TestDigestRootIsRFC6962OverEntryHashes(t *testing.T) {
	var mth func(d [][]byte) [32]byte
	mth = func(d [][]byte) [32]byte {
		switch len(d) {
		case 0:
			return sha256.Sum256(nil)
		case 1:
			return sha256.Sum256(append([]byte{0x00}, d[0]...))
		}
		k := 1
		for k*2 < len(d) {
			k *= 2
		}
		l, r := mth(d[:k]), mth(d[k:])
		return sha256.Sum256(append(append([]byte{0x01}, l[:]...), r[:]...))
	}
	l := newTestLedger()
	for n := 0; n <= 13; n++ {
		var leaves [][]byte
		for _, e := range l.Export() {
			h := e.computeHash()
			leaves = append(leaves, h[:])
		}
		if got, want := l.Digest().Root, mth(leaves); got != want {
			t.Fatalf("%d entries: digest root %x, RFC 6962 root over entry hashes %x", n, got, want)
		}
		fill(l, 1)
	}
}

func TestInclusionProofOutOfRange(t *testing.T) {
	l := newTestLedger()
	fill(l, 4)
	if _, err := l.ProveInclusion(4, 0); err == nil {
		t.Fatal("out of range seq accepted")
	}
	if _, err := l.ProveInclusion(3, 2); err == nil {
		t.Fatal("seq beyond digest size accepted")
	}
}

func TestConsistencyProofRoundTrip(t *testing.T) {
	l := newTestLedger()
	fill(l, 10)
	oldDigest := l.Digest()
	fill(l, 23)
	newDigest := l.Digest()
	p, err := l.ProveConsistency(oldDigest.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(p, oldDigest, newDigest); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	// Mismatched sizes must fail.
	bad := oldDigest
	bad.Size++
	if err := VerifyConsistency(p, bad, newDigest); err == nil {
		t.Fatal("size-mismatched consistency proof verified")
	}
}

func TestAuditCleanJournal(t *testing.T) {
	l := newTestLedger()
	fill(l, 25)
	r := Audit(l.Export(), l.Digest())
	if !r.Clean() {
		t.Fatalf("clean journal failed audit: %+v", r)
	}
}

func TestAuditEmptyJournal(t *testing.T) {
	l := newTestLedger()
	r := Audit(l.Export(), l.Digest())
	if !r.Clean() {
		t.Fatalf("empty journal failed audit: %+v", r)
	}
}

func TestAuditDetectsValueTampering(t *testing.T) {
	l := newTestLedger()
	fill(l, 25)
	entries := l.Export()
	entries[7].Value = []byte("rewritten-history")
	r := Audit(entries, l.Digest())
	if r.Clean() {
		t.Fatal("tampered value passed audit")
	}
	if r.FirstBad != 7 {
		t.Fatalf("FirstBad = %d, want 7", r.FirstBad)
	}
}

func TestAuditDetectsRecomputedHashTampering(t *testing.T) {
	// A smarter attacker rewrites the value AND recomputes the entry hash;
	// the chain then breaks at the next entry (or the digest tip).
	l := newTestLedger()
	fill(l, 25)
	entries := l.Export()
	entries[7].Value = []byte("rewritten")
	entries[7].EntryHash = entries[7].computeHash()
	r := Audit(entries, l.Digest())
	if r.Clean() {
		t.Fatal("chain-recomputing tamper passed audit")
	}
	if r.FirstBad != 8 {
		t.Fatalf("FirstBad = %d, want 8 (chain break)", r.FirstBad)
	}
}

func TestAuditDetectsFullRewrite(t *testing.T) {
	// The strongest journal-only attacker rewrites an entry and re-links the
	// entire suffix. Only the externally held digest catches this.
	l := newTestLedger()
	fill(l, 25)
	entries := l.Export()
	entries[7].Value = []byte("rewritten")
	var prev [32]byte
	if 7 > 0 {
		prev = entries[6].EntryHash
	}
	for i := 7; i < len(entries); i++ {
		entries[i].PrevHash = prev
		entries[i].EntryHash = entries[i].computeHash()
		prev = entries[i].EntryHash
	}
	r := Audit(entries, l.Digest())
	if r.Clean() {
		t.Fatal("full-rewrite tamper passed audit against the saved digest")
	}
	if r.ChainOK != true || r.MerkleOK {
		// Chain is internally consistent; the Merkle root must expose it.
		t.Fatalf("expected Merkle mismatch, got %+v", r)
	}
}

func TestAuditDetectsTruncation(t *testing.T) {
	l := newTestLedger()
	fill(l, 25)
	r := Audit(l.Export()[:20], l.Digest())
	if r.Clean() {
		t.Fatal("truncated journal passed audit")
	}
}

func TestAuditDetectsReorder(t *testing.T) {
	l := newTestLedger()
	fill(l, 10)
	entries := l.Export()
	entries[3], entries[4] = entries[4], entries[3]
	r := Audit(entries, l.Digest())
	if r.Clean() {
		t.Fatal("reordered journal passed audit")
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := l.Put(fmt.Sprintf("g%d-k%d", g, i), []byte("v"), "", ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Size() != 400 {
		t.Fatalf("size = %d, want 400", l.Size())
	}
	if r := Audit(l.Export(), l.Digest()); !r.Clean() {
		t.Fatalf("concurrent journal failed audit: %+v", r)
	}
}

// Property: any single-byte corruption of any exported entry value fails
// the audit.
func TestQuickAuditCatchesRandomCorruption(t *testing.T) {
	l := newTestLedger()
	fill(l, 32)
	d := l.Digest()
	f := func(rawIdx uint8, rawByte uint8, flip byte) bool {
		entries := l.Export()
		i := int(rawIdx) % len(entries)
		if len(entries[i].Value) == 0 {
			return true
		}
		j := int(rawByte) % len(entries[i].Value)
		if flip == 0 {
			flip = 1
		}
		entries[i].Value[j] ^= flip
		return !Audit(entries, d).Clean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLedgerAppend(b *testing.B) {
	l := New()
	val := []byte("value-of-reasonable-length-for-a-journal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Put(fmt.Sprintf("key-%d", i%1024), val, "author", "tx"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveInclusion(b *testing.B) {
	l := New()
	for i := 0; i < 4096; i++ {
		l.Put(fmt.Sprintf("k%d", i), []byte("v"), "", "")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ProveInclusion(uint64(i%4096), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAudit4096(b *testing.B) {
	l := New()
	for i := 0; i < 4096; i++ {
		l.Put(fmt.Sprintf("k%d", i), []byte("v"), "", "")
	}
	entries := l.Export()
	d := l.Digest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := Audit(entries, d); !r.Clean() {
			b.Fatal("audit failed")
		}
	}
}
