package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func recStrings(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v, want empty", rec)
	}
	appendAll(t, l, "a", "b", "c")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := openT(t, dir, Options{})
	if got, want := strings.Join(recStrings(rec2), ","), "a,b,c"; got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if rec2.Truncated {
		t.Fatal("clean log reported a truncated tail")
	}
}

func TestEmptyAndLargeRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	big := bytes.Repeat([]byte{0xAB}, 1<<16)
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSync(big); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 2 || len(rec.Records[0]) != 0 || !bytes.Equal(rec.Records[1], big) {
		t.Fatalf("recovered %d records, want empty + 64KiB", len(rec.Records))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 64})
	var want []string
	for i := 0; i < 40; i++ {
		r := fmt.Sprintf("record-%02d", i)
		want = append(want, r)
		appendAll(t, l, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments after rotation, got %d (%v)", len(segs), err)
	}
	_, rec := openT(t, dir, Options{SegmentBytes: 64})
	if got := strings.Join(recStrings(rec), ","); got != strings.Join(want, ",") {
		t.Fatalf("rotation lost records:\n got %s\nwant %s", got, strings.Join(want, ","))
	}
}

// TestTornTailTruncates crashes mid-record: the tail is cut back to the
// last valid record, recovery never errors or panics, and the log stays
// usable for new appends.
func TestTornTailTruncates(t *testing.T) {
	for _, cut := range []int{1, 3, frameHeader - 1, frameHeader + 2} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{})
			appendAll(t, l, "keep-1", "keep-2", "torn-record-payload")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := onlySegment(t, dir)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Chop the final record somewhere inside its frame.
			if err := os.Truncate(seg, info.Size()-int64(len("torn-record-payload"))-int64(frameHeader)+int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2, rec := openT(t, dir, Options{})
			if !rec.Truncated {
				t.Fatal("torn tail not reported")
			}
			if got := strings.Join(recStrings(rec), ","); got != "keep-1,keep-2" {
				t.Fatalf("recovered %q, want the two intact records", got)
			}
			// Still writable after truncation.
			appendAll(t, l2, "after-tear")
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec3 := openT(t, dir, Options{})
			if got := strings.Join(recStrings(rec3), ","); got != "keep-1,keep-2,after-tear" {
				t.Fatalf("post-tear append lost: %q", got)
			}
		})
	}
}

// TestCorruptTailBitFlip flips one payload byte: the CRC rejects the
// record and everything after it.
func TestCorruptTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendAll(t, l, "good-1", "good-2", "bad-record", "unreachable")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte("bad-record"))
	if i < 0 {
		t.Fatal("payload not found")
	}
	b[i] ^= 0x40
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if !rec.Truncated {
		t.Fatal("bit flip not detected")
	}
	if got := strings.Join(recStrings(rec), ","); got != "good-1,good-2" {
		t.Fatalf("recovered %q, want only the records before the flip", got)
	}
}

// TestCorruptLengthField writes garbage over a length prefix (an absurd
// size): recovery must not allocate it or panic.
func TestCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendAll(t, l, "ok", "victim")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte("victim"))
	copy(b[i-frameHeader:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if got := strings.Join(recStrings(rec), ","); got != "ok" || !rec.Truncated {
		t.Fatalf("recovered %q (truncated=%v), want just %q", got, rec.Truncated, "ok")
	}
}

// TestTornTailDropsLaterSegments: corruption in segment k discards
// segments > k entirely — their ordering relative to the lost records is
// unknowable.
func TestTornTailDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 32})
	appendAll(t, l, "seg1-record-aaaaaaaaaaaa", "seg2-record-bbbbbbbbbbbb", "seg3-record-cccccccccccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("setup needs >=3 segments, got %d", len(segs))
	}
	// Corrupt the middle one.
	b, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(segs[1], b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{SegmentBytes: 32})
	if got := strings.Join(recStrings(rec), ","); got != "seg1-record-aaaaaaaaaaaa" {
		t.Fatalf("recovered %q, want only segment 1's record", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix)); len(left) > 3 {
		t.Fatalf("later segments not removed: %v", left)
	}
}

func TestSnapshotCompactsTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendAll(t, l, "pre-1", "pre-2")
	if err := l.Snapshot([]byte("state@2")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "post-1")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "state@2" {
		t.Fatalf("snapshot = %q, want state@2", rec.Snapshot)
	}
	if got := strings.Join(recStrings(rec), ","); got != "post-1" {
		t.Fatalf("post-snapshot records = %q, want only post-1", got)
	}
}

// TestReadSnapshot: ReadSnapshot serves the newest snapshot, from a
// live log and from a reopened one, and nil before there is any.
func TestReadSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if b, err := l.ReadSnapshot(); b != nil || err != nil {
		t.Fatalf("ReadSnapshot before any snapshot = %q, %v; want nil, nil", b, err)
	}
	for _, state := range []string{"state@1", "state@2"} {
		appendAll(t, l, "r")
		if err := l.Snapshot([]byte(state)); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := l.ReadSnapshot(); string(b) != "state@2" || err != nil {
		t.Fatalf("ReadSnapshot = %q, %v; want state@2", b, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openT(t, dir, Options{})
	defer func() { _ = l.Close() }()
	if b, err := l.ReadSnapshot(); string(b) != "state@2" || err != nil {
		t.Fatalf("ReadSnapshot after reopen = %q, %v; want state@2", b, err)
	}
}

// TestSnapshotCrashBeforeRename: a leftover .tmp never shadows the real
// state — recovery sees the previous snapshot plus the full tail.
func TestSnapshotCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendAll(t, l, "r1", "r2")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a snapshot write that died before rename.
	tmp := filepath.Join(dir, snapPrefix+"0000000000000001"+snapSuffix+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if rec.Snapshot != nil {
		t.Fatalf("partial snapshot surfaced: %q", rec.Snapshot)
	}
	if got := strings.Join(recStrings(rec), ","); got != "r1,r2" {
		t.Fatalf("recovered %q, want full tail", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stray .tmp not cleaned up")
	}
}

// TestSnapshotCrashBeforeCleanup: the snapshot renamed but the old
// segments survived the crash. The horizon must keep them from being
// replayed on top of the newer state.
func TestSnapshotCrashBeforeCleanup(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendAll(t, l, "old-1", "old-2")
	// Preserve the pre-snapshot segment as if cleanup never ran.
	seg := onlySegment(t, dir)
	saved, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "new-1")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "state" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if got := strings.Join(recStrings(rec), ","); got != "new-1" {
		t.Fatalf("superseded segment replayed: %q", got)
	}
}

// TestCorruptSnapshotFallsBack: a bit-flipped newest snapshot is
// rejected; recovery falls back to the previous one. (The older
// snapshot's tail segments are gone — compaction deleted them — so the
// caller sees older state and learn-syncs the difference; what it must
// never see is corrupt state.)
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := l.Snapshot([]byte("snap-one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("snap-two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot() prunes older snaps; re-create snap 1 to model a crash
	// that left both behind, then corrupt snap 2.
	one := filepath.Join(dir, snapPrefix+"0000000000000001"+snapSuffix)
	if err := writeSnapshotFile(one, 0, []byte("snap-one"), false); err != nil {
		t.Fatal(err)
	}
	two := filepath.Join(dir, snapPrefix+"0000000000000002"+snapSuffix)
	b, err := os.ReadFile(two)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(two, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "snap-one" {
		t.Fatalf("snapshot = %q, want fallback snap-one", rec.Snapshot)
	}
	if _, err := os.Stat(two); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not removed")
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append on closed = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync on closed = %v, want ErrClosed", err)
	}
	if err := l.Snapshot(nil); err != ErrClosed {
		t.Fatalf("Snapshot on closed = %v, want ErrClosed", err)
	}
	if _, err := l.ReadSnapshot(); err != ErrClosed {
		t.Fatalf("ReadSnapshot on closed = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 256, NoSync: true})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if err := l.AppendSync([]byte(fmt.Sprintf("g%d-%02d", g, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 200 {
		t.Fatalf("recovered %d records, want 200", len(rec.Records))
	}
	seen := map[string]bool{}
	for _, r := range rec.Records {
		if seen[string(r)] {
			t.Fatalf("duplicate record %q", r)
		}
		seen[string(r)] = true
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	payload := bytes.Repeat([]byte{0x5A}, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendFsync(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	payload := bytes.Repeat([]byte{0x5A}, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendSync(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALRecover(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for i := 0; i < 10000; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, rec, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Records) != 10000 {
			b.Fatalf("recovered %d", len(rec.Records))
		}
		if err := l2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
