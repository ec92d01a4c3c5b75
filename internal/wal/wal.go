// Package wal is a CRC-framed, segment-rotated write-ahead log with
// atomic state snapshots and tail compaction — the crash-durability
// substrate under both consensus implementations (paxos and pbft).
//
// On disk a log directory holds two kinds of files:
//
//	seg-%016d.wal    append-only record segments, rotated at SegmentBytes
//	snap-%016d.snap  full state snapshots, written temp-then-rename
//
// Each record (in segments and inside snapshot files alike) is framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// so a torn write — a crash mid-append — is detected by a short or
// CRC-mismatching tail. Recovery truncates the segment at the last valid
// record and discards any later segments; it never panics on corrupt
// input.
//
// Snapshots compact the tail: Snapshot(data) durably writes the state,
// records the segment horizon (the index of the first segment that
// post-dates the snapshot), then deletes all pre-horizon segments. A
// crash between those steps is safe in both directions — the horizon
// stored inside the snapshot file tells recovery exactly which segments
// are superseded, so stale segments left behind by a crash are skipped,
// and a snapshot that never finished its rename is invisible (the
// previous snapshot plus the full segment tail is still intact).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Snapshotter is implemented by state machines that can be captured into
// and restored from an opaque blob. Consensus replicas embed the
// application's blob inside their own snapshot so one file restores both
// the protocol state and the state machine under it.
type Snapshotter interface {
	// Snapshot returns a self-contained encoding of the current state.
	Snapshot() ([]byte, error)
	// Restore replaces the current state with a previously captured one.
	Restore(data []byte) error
}

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	frameHeader = 8 // uint32 length + uint32 CRC
	// maxRecordBytes rejects absurd lengths produced by corruption
	// before any allocation happens.
	maxRecordBytes = 1 << 28

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tune a Log.
type Options struct {
	// SegmentBytes is the size at which the active segment is rotated.
	// Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips fsync on Sync calls. Test/bench only: it trades
	// crash-durability for speed and must never be set in production.
	NoSync bool
}

// Recovery reports what Open reconstructed from disk.
type Recovery struct {
	// Snapshot is the payload of the newest intact snapshot, nil if the
	// directory holds none.
	Snapshot []byte
	// SnapshotSeq is that snapshot's sequence number (0 when Snapshot
	// is nil).
	SnapshotSeq uint64
	// Records are the valid records that post-date the snapshot, in
	// append order.
	Records [][]byte
	// Truncated is true when a torn or corrupt tail was cut off.
	Truncated bool
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active segment
	segIdx  uint64   // active segment index
	size    int64    // bytes written to the active segment
	snapSeq uint64   // newest snapshot sequence number
	dirty   bool     // appended since the last Sync
	closed  bool
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

// Open recovers the log in dir (created if absent) and returns it ready
// for appending, together with what was found on disk. Appends always go
// to a fresh segment, so a truncated tail segment is never written to
// again.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{}

	snapSeq, horizon, err := loadSnapshot(dir, rec)
	if err != nil {
		return nil, nil, err
	}

	segs, err := listNumbered(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, nil, err
	}
	lastIdx := uint64(0)
	for _, s := range segs {
		if s.idx >= lastIdx {
			lastIdx = s.idx
		}
		if s.idx < horizon {
			// Superseded by the snapshot: a crash interrupted the
			// post-snapshot cleanup. Finish it now.
			_ = os.Remove(filepath.Join(dir, s.name))
			continue
		}
		stop, err := readSegment(filepath.Join(dir, s.name), rec)
		if err != nil {
			return nil, nil, err
		}
		if stop {
			// Torn tail: anything in later segments was written after
			// the corruption point and cannot be trusted to be ordered.
			for _, later := range segs {
				if later.idx > s.idx {
					_ = os.Remove(filepath.Join(dir, later.name))
				}
			}
			break
		}
	}

	l := &Log{dir: dir, opts: opts, segIdx: lastIdx + 1, snapSeq: snapSeq}
	if err := l.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// openSegmentLocked creates and syncs a fresh active segment. Callers
// hold l.mu (or own the Log exclusively during Open).
func (l *Log) openSegmentLocked() error {
	name := filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, l.segIdx, segSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = 0
	return syncDir(l.dir)
}

// Append frames and writes one record to the active segment, rotating
// first if the segment is full. The record is NOT durable until Sync
// returns.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.size > 0 && l.size+int64(frameHeader+len(payload)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(frameHeader + len(payload))
	l.dirty = true
	return nil
}

// rotateLocked syncs and closes the active segment and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segIdx++
	return l.openSegmentLocked()
}

// Sync makes every record appended so far durable (fsync on the active
// segment). It is the commit barrier: consensus must not ack, vote, or
// wake a client waiter before Sync returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.dirty = false
	return nil
}

// AppendSync appends one record and makes it durable in one call.
func (l *Log) AppendSync(payload []byte) error {
	if err := l.Append(payload); err != nil {
		return err
	}
	return l.Sync()
}

// Snapshot durably writes data as the new state snapshot, then compacts:
// every record appended before this call is superseded and its segments
// are deleted. The write is temp-then-rename so a crash leaves either
// the old snapshot (with the full segment tail) or the new one; the
// segment horizon stored inside the file keeps a crash between rename
// and cleanup from replaying superseded records.
func (l *Log) Snapshot(data []byte) error {
	if len(data) > maxRecordBytes {
		return fmt.Errorf("wal: snapshot of %d bytes exceeds limit", len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Records appended after this point belong to the next segment,
	// which post-dates the snapshot.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	horizon := l.segIdx // first segment NOT covered by the snapshot
	seq := l.snapSeq + 1

	final := l.snapPath(seq)
	tmp := final + tmpSuffix
	if err := writeSnapshotFile(tmp, horizon, data, l.opts.NoSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.snapSeq = seq

	// Cleanup is best-effort: the horizon makes leftovers harmless.
	if ents, err := os.ReadDir(l.dir); err == nil {
		for _, e := range ents {
			if idx, ok := parseNumbered(e.Name(), segPrefix, segSuffix); ok && idx < horizon {
				_ = os.Remove(filepath.Join(l.dir, e.Name()))
			}
			if idx, ok := parseNumbered(e.Name(), snapPrefix, snapSuffix); ok && idx < seq {
				_ = os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
	}
	return nil
}

// ReadSnapshot returns the payload of the newest snapshot, nil if the
// log holds none. The file is opened under the lock and read outside
// it, so a large snapshot does not hold up appends, and a Snapshot call
// meanwhile cannot take it away: the cleanup's unlink leaves an open
// file readable.
func (l *Log) ReadSnapshot() ([]byte, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.snapSeq == 0 {
		l.mu.Unlock()
		return nil, nil
	}
	f, err := os.Open(l.snapPath(l.snapSeq))
	l.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer func() { _ = f.Close() }() // read only: nothing to lose
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	_, data, ok := parseSnapshot(b)
	if !ok {
		return nil, fmt.Errorf("wal: snapshot %s is corrupt", f.Name())
	}
	return data, nil
}

// Close syncs and closes the active segment. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// writeSnapshotFile writes horizon + data as two framed records into
// path and fsyncs it.
func writeSnapshotFile(path string, horizon uint64, data []byte, noSync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], horizon)
	werr := writeFramed(f, hdr[:])
	if werr == nil {
		werr = writeFramed(f, data)
	}
	if werr == nil && !noSync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(path)
		return fmt.Errorf("wal: %w", werr)
	}
	return nil
}

func writeFramed(w io.Writer, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// loadSnapshot finds the newest intact snapshot, filling rec and
// returning its sequence number and segment horizon. Corrupt or partial
// snapshot files are skipped (falling back to older ones) and removed.
func loadSnapshot(dir string, rec *Recovery) (seq, horizon uint64, err error) {
	snaps, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, 0, err
	}
	// Newest first.
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snaps[i].name)
		b, err := os.ReadFile(path)
		h, data, ok := parseSnapshot(b)
		if err != nil || !ok {
			// Torn or corrupt: unusable, and keeping it would shadow
			// the good one on the next open.
			_ = os.Remove(path)
			continue
		}
		rec.Snapshot = data
		rec.SnapshotSeq = snaps[i].idx
		// Older snapshots are dead weight now.
		for j := 0; j < i; j++ {
			_ = os.Remove(filepath.Join(dir, snaps[j].name))
		}
		return snaps[i].idx, h, nil
	}
	return 0, 0, nil
}

// parseSnapshot parses the bytes of one snapshot file; ok is false on
// any framing or CRC failure.
func parseSnapshot(b []byte) (horizon uint64, data []byte, ok bool) {
	hdr, rest, ok := nextFrame(b)
	if !ok || len(hdr) != 8 {
		return 0, nil, false
	}
	data, rest, ok = nextFrame(rest)
	if !ok || len(rest) != 0 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(hdr), data, true
}

// readSegment appends the segment's valid records to rec. stop is true
// when a torn/corrupt tail was found (the file has been truncated at the
// last valid record and later segments must be dropped).
func readSegment(path string, rec *Recovery) (stop bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		payload, rest, ok := nextFrame(b[off:])
		if !ok {
			if off == len(b) {
				return false, nil // clean end of segment
			}
			// Torn tail: cut the file back to the last valid record.
			rec.Truncated = true
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return false, fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			return true, nil
		}
		rec.Records = append(rec.Records, payload)
		off = len(b) - len(rest)
	}
}

// nextFrame decodes one framed record from b. ok is false when b is
// empty, short, oversized, or fails the CRC.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxRecordBytes || int(n) > len(b)-frameHeader {
		return nil, nil, false
	}
	sum := binary.LittleEndian.Uint32(b[4:8])
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, nil, false
	}
	return payload, b[frameHeader+int(n):], true
}

type numbered struct {
	name string
	idx  uint64
}

// listNumbered returns prefix<N>suffix files in dir sorted by N,
// deleting stray temp files from interrupted snapshot writes.
func listNumbered(dir, prefix, suffix string) ([]numbered, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []numbered
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if idx, ok := parseNumbered(name, prefix, suffix); ok {
			out = append(out, numbered{name: name, idx: idx})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out, nil
}

func parseNumbered(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	idx, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort on platforms where directories cannot be synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil && !errors.Is(serr, os.ErrInvalid) {
		return fmt.Errorf("wal: %w", serr)
	}
	return nil
}
