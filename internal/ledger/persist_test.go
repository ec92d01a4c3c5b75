package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalMarshalRoundTrip(t *testing.T) {
	l := newTestLedger()
	fill(l, 25)
	if _, err := l.Put("k003", []byte("overwritten"), "auditor", "txd"); err != nil {
		t.Fatal(err)
	}
	data, err := l.MarshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	entries, d, err := UnmarshalJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if d != l.Digest() {
		t.Fatal("digest changed through serialization")
	}
	restored, err := FromJournal(entries, d)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != l.Digest() {
		t.Fatal("restored ledger digest differs")
	}
	// State must match too.
	if got, err := restored.Get("k003"); err != nil || string(got) != "overwritten" {
		t.Fatalf("restored ledger reads k003 = %q, %v; want its last PUT", got, err)
	}
	want, _ := l.Get("k004")
	got, err := restored.Get("k004")
	if err != nil || string(got) != string(want) {
		t.Fatalf("restored state mismatch: %q vs %q (%v)", got, want, err)
	}
	// The restored ledger keeps working.
	if _, err := restored.Put("new", []byte("x"), "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestFromJournalRefusesDelete: a journal whose hashes and digest are
// all in order but which holds an entry of kind 2 (DELETE, which no
// ledger records) is refused, not replayed as a PUT or skipped.
func TestFromJournalRefusesDelete(t *testing.T) {
	l := newTestLedger()
	fill(l, 4)
	l.mu.Lock()
	e := Entry{
		Seq:      uint64(len(l.entries)),
		Time:     l.clock(),
		Kind:     OpKind(2),
		Key:      "k001",
		PrevHash: l.entries[len(l.entries)-1].EntryHash,
	}
	e.EntryHash = e.computeHash()
	l.entries = append(l.entries, e)
	l.tree.Append(e.EntryHash[:])
	l.mu.Unlock()
	entries, d := l.Export(), l.Digest()
	if rep := Audit(entries, d); !rep.Clean() {
		t.Fatalf("test setup: the journal should audit clean: %+v", rep)
	}
	if _, err := FromJournal(entries, d); err == nil || !strings.Contains(err.Error(), "only PUT") {
		t.Fatalf("FromJournal of a journal holding a DELETE: err = %v, want a refusal", err)
	}
}

func TestFromJournalRejectsTamper(t *testing.T) {
	l := newTestLedger()
	fill(l, 10)
	data, _ := l.MarshalJournal()
	entries, d, _ := UnmarshalJournal(data)
	entries[3].Value = []byte("rewritten")
	if _, err := FromJournal(entries, d); err == nil {
		t.Fatal("tampered journal loaded")
	}
}

func TestUnmarshalJournalRejectsGarbage(t *testing.T) {
	if _, _, err := UnmarshalJournal([]byte("not-json")); err == nil {
		t.Fatal("garbage parsed")
	}
	wrong, _ := json.Marshal(map[string]any{"format": "other/v9"})
	if _, _, err := UnmarshalJournal(wrong); err == nil {
		t.Fatal("wrong format accepted")
	}
}

// TestOldFormatJournalRefused loads an untampered journal as v1 wrote
// it, when the Merkle leaf was the entry's JSON encoding: a put and a
// delete of "k" at a fixed time. LoadFile must refuse it as an unknown
// format, not report it as tampered. Its hash chain still holds (the
// entry hash did not change), but its digest root is over the old
// leaves, so read as v2 it would fail the audit.
func TestOldFormatJournalRefused(t *testing.T) {
	const v1 = `{"format":"prever/ledger/journal/v1","digest":{"size":2,"root":[207,2,83,173,71,143,209,93,57,230,249,229,213,211,141,153,89,67,67,204,37,228,198,153,181,86,40,215,243,78,70,170],"tip":[190,206,162,76,82,85,203,255,220,144,57,141,164,84,66,25,198,20,109,241,100,137,129,238,134,57,211,178,89,201,170,45]},"entries":[{"seq":0,"time":"2024-01-01T00:00:00Z","kind":1,"key":"k","value":"dg==","author":"producer","txid":"tx1","prev":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"hash":[61,119,19,203,52,101,154,52,67,78,9,121,207,164,94,91,96,68,24,186,233,170,252,207,69,238,80,11,160,169,160,215]},{"seq":1,"time":"2024-01-01T00:00:00Z","kind":2,"key":"k","author":"auditor","txid":"tx2","prev":[61,119,19,203,52,101,154,52,67,78,9,121,207,164,94,91,96,68,24,186,233,170,252,207,69,238,80,11,160,169,160,215],"hash":[190,206,162,76,82,85,203,255,220,144,57,141,164,84,66,25,198,20,109,241,100,137,129,238,134,57,211,178,89,201,170,45]}]}`
	path := filepath.Join(t.TempDir(), "journal.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), `unknown journal format "prever/ledger/journal/v1"`) {
		t.Fatalf("v1 journal: got %v, want the unknown-format error", err)
	}

	var f journalFile
	if err := json.Unmarshal([]byte(v1), &f); err != nil {
		t.Fatal(err)
	}
	rep := Audit(f.Entries, f.Digest)
	if !rep.ChainOK || !rep.DigestOK || rep.MerkleOK {
		t.Fatalf("v1 entries under the v2 leaf: report %+v, want an intact chain and tip, and a root mismatch", rep)
	}
}

func TestSaveLoadFile(t *testing.T) {
	l := newTestLedger()
	fill(l, 12)
	path := filepath.Join(t.TempDir(), "journal.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != l.Digest() {
		t.Fatal("file round trip changed the digest")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestLoadFileRejectsTornWrite: a journal cut short or flipped mid-file
// (the failure a non-atomic writer leaves behind after a crash) must be
// rejected at load, never half-loaded. SaveFile itself writes
// temp-then-rename, so such a file can only come from outside damage —
// but the loader must still refuse it.
func TestLoadFileRejectsTornWrite(t *testing.T) {
	l := newTestLedger()
	fill(l, 20)
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: the file ends mid-record.
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(torn); err == nil {
		t.Fatal("truncated journal loaded")
	}

	// Bit flip inside an entry value: still valid JSON but fails the
	// audit against the embedded digest.
	entries, d, err := UnmarshalJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	entries[7].Value = append([]byte(nil), entries[7].Value...)
	entries[7].Value[0] ^= 0x01
	tampered, err := json.Marshal(journalFile{Format: journalFormat, Digest: d, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "flipped.json")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("bit-flipped journal loaded")
	}

	// The original, atomically written file still loads.
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("intact journal failed to load: %v", err)
	}
}

// TestSaveFileAtomic: saving over an existing journal leaves no window
// with a missing or partial file — the temp file never shadows the
// target, and a failed save leaves the previous journal intact.
func TestSaveFileAtomic(t *testing.T) {
	l := newTestLedger()
	fill(l, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	first := l.Digest()

	// Overwrite with a bigger journal; the target must always load.
	fill(l, 40)
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() == first {
		t.Fatal("save did not replace the journal")
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("save left extra files: %v", names)
	}
}

func TestSaveLoadEmptyLedger(t *testing.T) {
	l := newTestLedger()
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != 0 {
		t.Fatalf("restored size = %d", restored.Size())
	}
}
