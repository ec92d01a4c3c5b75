package chain

import "prever/internal/mempool"

// NewInstantSharded is a one-shard chain whose every batch resolves the
// moment it is drained: a pool and a batcher with nothing behind them, no
// peers and no consensus. It measures the admission path alone, for the
// tests of package chain_test. stop shuts it down.
func NewInstantSharded() (c *Sharded, stop func()) {
	s := newBareShard()
	s.pool = mempool.NewPool(mempool.Config{Cap: 1 << 16, BatchSize: 64, FlushInterval: -1, Executed: func(string) bool { return false }})
	s.batcher = mempool.NewBatcher(s.pool, func([][]byte) func() error { return func() error { return nil } })
	return &Sharded{shards: []*Shard{s}}, func() { _ = s.Close() }
}
