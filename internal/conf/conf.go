// Package conf holds no configuration. Each package states its own
// defaults (mempool.Default*, chain.DefaultMaxTxBytes,
// pbft.DefaultSnapshotEvery, wal.DefaultSegmentBytes) and a shard is
// built with a chain.ShardConfig value. What remains are three shims the
// benchmark module still calls; nothing in the root module imports this
// package (make deps-check).
package conf

import (
	"prever/internal/pbft"
	"prever/internal/wal"
)

// Reset does nothing: there is no process-wide configuration to restore.
func Reset() {}

// SnapshotEvery returns pbft.DefaultSnapshotEvery.
func SnapshotEvery() uint64 { return pbft.DefaultSnapshotEvery }

// WALSegmentBytes returns wal.DefaultSegmentBytes.
func WALSegmentBytes() int64 { return wal.DefaultSegmentBytes }
