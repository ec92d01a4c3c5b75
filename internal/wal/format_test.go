package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckFormat(t *testing.T) {
	const v2 = "test/format/v2"
	dir := filepath.Join(t.TempDir(), "nested", "replica")

	// A directory that does not exist yet is created and stamped; the
	// stamp then admits the same format and Open works beside it.
	if err := CheckFormat(dir, v2); err != nil {
		t.Fatalf("fresh directory: %v", err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, formatFile)); err != nil || string(b) != v2+"\n" {
		t.Fatalf("stamp = %q, %v", b, err)
	}
	l, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSync([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(dir, v2); err != nil {
		t.Fatalf("reopening a stamped directory: %v", err)
	}

	// Another stamp is refused, and the message names both formats.
	err = CheckFormat(dir, "test/format/v3")
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("other stamp: %v, want ErrFormat", err)
	}
	for _, want := range []string{dir, `holds "test/format/v2"`, `reads "test/format/v3"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}

	// Segments or a snapshot without a stamp predate stamping.
	for _, name := range []string{"seg-0000000000000001.wal", "snap-0000000000000003.snap"} {
		old := t.TempDir()
		if err := os.WriteFile(filepath.Join(old, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := CheckFormat(old, v2)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unstamped") {
			t.Fatalf("unstamped directory holding %s: %v, want ErrFormat", name, err)
		}
		if ents, _ := os.ReadDir(old); len(ents) != 1 {
			t.Fatalf("refused directory was written to: %v", ents)
		}
	}

	// Files that are not a log's do not make a directory an old one.
	other := t.TempDir()
	if err := os.WriteFile(filepath.Join(other, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(other, v2); err != nil {
		t.Fatalf("directory without log files: %v", err)
	}
}
