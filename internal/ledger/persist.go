package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// journalFile is the on-disk format: a versioned envelope so future
// format changes stay detectable.
type journalFile struct {
	Format  string  `json:"format"`
	Digest  Digest  `json:"digest"`
	Entries []Entry `json:"entries"`
}

// v2: the Merkle leaf is the entry hash, not the entry's JSON encoding,
// so a v1 journal's digest no longer matches its entries.
const journalFormat = "prever/ledger/journal/v2"

// MarshalJournal serializes the full journal plus its digest.
func (l *Ledger) MarshalJournal() ([]byte, error) {
	l.mu.RLock()
	f := journalFile{
		Format:  journalFormat,
		Digest:  l.digestLocked(),
		Entries: l.entries,
	}
	data, err := json.MarshalIndent(&f, "", " ")
	l.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("ledger: marshal journal: %w", err)
	}
	return data, nil
}

// SaveFile writes the journal to path atomically: the bytes land in a
// temp file in the same directory, are fsynced, and only then renamed
// over path. A crash mid-save leaves either the previous journal or the
// new one, never a torn file that fails its own audit. The journal stays
// a single digest-audited full image (rather than adopting the WAL's
// record framing) because it is an export/exchange format — readers
// verify the embedded digest over the whole entry list, so a partially
// valid prefix has no meaning the way a WAL tail does.
func (l *Ledger) SaveFile(path string) error {
	data, err := l.MarshalJournal()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ledger: save journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("ledger: save journal: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ledger: save journal: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// UnmarshalJournal parses a serialized journal, returning the entries and
// the digest the writer claimed. It does NOT verify; call Audit or
// FromJournal for that.
func UnmarshalJournal(data []byte) ([]Entry, Digest, error) {
	var f journalFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, Digest{}, fmt.Errorf("ledger: unmarshal journal: %w", err)
	}
	if f.Format != journalFormat {
		return nil, Digest{}, fmt.Errorf("ledger: unknown journal format %q", f.Format)
	}
	return f.Entries, f.Digest, nil
}

// FromJournal reconstructs a ledger from an exported journal, refusing any
// journal that fails the audit against the embedded digest, and any
// entry of a kind other than PUT, the one kind Put records. This is how
// a ledger survives a restart — and how a reader rejects a tampered
// file.
func FromJournal(entries []Entry, d Digest) (*Ledger, error) {
	if rep := Audit(entries, d); !rep.Clean() {
		return nil, fmt.Errorf("ledger: journal failed audit: %v", rep.TamperErr)
	}
	l := New()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		if e.Kind != OpPut {
			return nil, fmt.Errorf("ledger: journal entry %d is a %v; only PUT entries are recorded", e.Seq, e.Kind)
		}
		e := cloneEntry(e)
		l.entries = append(l.entries, e)
		l.tree.Append(e.EntryHash[:])
		l.state.Put(e.Key, e.Value)
	}
	return l, nil
}

// LoadFile reads, verifies and reconstructs a ledger from path.
func LoadFile(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, d, err := UnmarshalJournal(data)
	if err != nil {
		return nil, err
	}
	return FromJournal(entries, d)
}
