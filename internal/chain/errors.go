package chain

import (
	"errors"
	"fmt"

	"prever/internal/mempool"
)

// Typed sentinel errors on the submission path. Callers — and the HTTP
// clients behind internal/api — branch on these with errors.Is instead of
// matching strings; internal/api maps each onto an HTTP status code.
// The first three wrap the mempool sentinel that produced them, so
// errors.Is matches at either level.
var (
	// ErrPoolFull reports that admission control refused the transaction:
	// the mempool is at its cap. Back off and retry (HTTP 429).
	ErrPoolFull = fmt.Errorf("chain: submission rejected: %w", mempool.ErrFull)
	// ErrDuplicate reports that the transaction's ID is already in the
	// chain. The submission is acknowledged — the original committed —
	// but nothing was proposed again (HTTP 409).
	ErrDuplicate = fmt.Errorf("chain: duplicate transaction: %w", mempool.ErrDuplicate)
	// ErrShardClosed reports that the shard's submission front end has
	// shut down (HTTP 503).
	ErrShardClosed = fmt.Errorf("chain: shard closed: %w", mempool.ErrClosed)
	// ErrTxTooLarge reports that the encoded transaction exceeds the
	// conf.MaxTxBytes bound (HTTP 413).
	ErrTxTooLarge = errors.New("chain: transaction too large")
	// ErrTxTooDeep reports that the transaction's Writes nest deeper than
	// the codec's cap (HTTP 400).
	ErrTxTooDeep = errors.New("chain: transaction writes nested too deep")
)

// sentinelErr lifts a mempool-level error onto the chain-level sentinel;
// other errors (consensus timeouts and the like) pass through unchanged.
func sentinelErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, mempool.ErrFull):
		return ErrPoolFull
	case errors.Is(err, mempool.ErrDuplicate):
		return ErrDuplicate
	case errors.Is(err, mempool.ErrClosed):
		return ErrShardClosed
	default:
		return err
	}
}
