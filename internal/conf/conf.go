// Package conf is the boot configuration of the consensus/batching
// stack (wavelet's conf/conf.go pattern): one immutable snapshot struct
// behind an atomic pointer. main sets it from its flags before any shard
// exists; constructors read it once and keep what they read (chain.NewShard,
// mempool.NewPool, api.NewServer), so nothing built follows a later
// Set/Update — a running server cannot be retuned, least of all over the
// wire. Set/Update install a fresh copy (copy-on-write): every field a
// caller reads through one Snapshot() call is from the same generation.
package conf

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config is one snapshot of every knob.
type Config struct {
	// BatchSize is the maximum number of operations the mempool batcher
	// drains into one consensus instance.
	BatchSize int
	// FlushInterval is how long the batcher waits for a partial batch to
	// fill before proposing it anyway. Zero proposes immediately, and so
	// does a batch submission that finds consensus idle (mempool.Pool.Flush).
	FlushInterval time.Duration
	// MaxInFlight is how many batched consensus instances may be
	// pipelined concurrently (slots/sequence numbers assigned eagerly,
	// applied in order).
	MaxInFlight int
	// MempoolCap is the admission-control bound on unresolved mempool
	// operations (queued + in flight); additions beyond it are rejected.
	MempoolCap int
	// MaxTxBytes bounds one encoded transaction on the submit path — the
	// binary encoding consensus carries (chain/codec.go: a 64-byte put is
	// ~100 bytes), not the JSON of an HTTP request; larger submissions fail with chain.ErrTxTooLarge (HTTP 413 on the
	// wire) instead of bloating consensus batches.
	MaxTxBytes int
	// SnapshotEvery is the executed-sequence cadence between durable
	// consensus snapshots (WAL compaction points) when a shard runs with
	// a data directory.
	SnapshotEvery uint64
	// WALSegmentBytes is the WAL segment rotation threshold for durable
	// replicas.
	WALSegmentBytes int64
}

// Defaults is the configuration the system boots with.
func Defaults() Config {
	return Config{
		BatchSize:       64,
		FlushInterval:   500 * time.Microsecond,
		MaxInFlight:     4,
		MempoolCap:      4096,
		MaxTxBytes:      1 << 20,
		SnapshotEvery:   256,
		WALSegmentBytes: 4 << 20,
	}
}

// sanitize clamps a config to usable values so a zeroed or negative knob
// can never wedge the batcher.
func (c *Config) sanitize() {
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1
	}
	if c.MempoolCap < 1 {
		c.MempoolCap = 1
	}
	if c.MaxTxBytes < 1 {
		c.MaxTxBytes = 1 << 20
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 256
	}
	if c.WALSegmentBytes < 1 {
		c.WALSegmentBytes = 4 << 20
	}
}

var (
	cur atomic.Pointer[Config]
	// setMu serializes writers so two concurrent Update calls cannot lose
	// each other's fields; readers never take it.
	setMu sync.Mutex
)

func init() {
	d := Defaults()
	cur.Store(&d)
}

// Snapshot returns the current configuration. All fields are from the
// same generation.
func Snapshot() Config { return *cur.Load() }

// Set installs c (sanitized) as the current configuration.
func Set(c Config) {
	setMu.Lock()
	defer setMu.Unlock()
	c.sanitize()
	cur.Store(&c)
}

// Update applies f to a copy of the current configuration and installs
// the result; concurrent Update calls are serialized, so no field write
// is lost.
func Update(f func(*Config)) {
	setMu.Lock()
	defer setMu.Unlock()
	c := *cur.Load()
	f(&c)
	c.sanitize()
	cur.Store(&c)
}

// Reset restores Defaults (test hygiene).
func Reset() { Set(Defaults()) }

// Accessors for the call sites that touch one knob.

// MaxTxBytes returns the encoded-transaction size bound.
func MaxTxBytes() int { return Snapshot().MaxTxBytes }

// SnapshotEvery returns the durable-snapshot cadence.
func SnapshotEvery() uint64 { return Snapshot().SnapshotEvery }

// WALSegmentBytes returns the WAL segment rotation threshold.
func WALSegmentBytes() int64 { return Snapshot().WALSegmentBytes }
