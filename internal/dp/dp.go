// Package dp implements the differential-privacy substrate PReVer's
// Research Challenge 1 discussion names as the lightweight alternative to
// cryptographic protection: differentially private indexing with partial
// disclosure. It provides the Laplace mechanism, a privacy-budget
// accountant, and a DP range-count index with two refresh policies — the
// naive per-update republish the paper warns about ("naive uses of
// differential privacy lead to rapidly exhausting the limited privacy
// budget, especially when updates come at a high rate") and a batched
// policy that trades staleness for budget. Experiment E7 measures exactly
// this trade-off.
package dp

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
)

// ErrBudgetExhausted is returned when an operation would exceed the total
// privacy budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Laplace draws a sample from the Laplace distribution with mean 0 and the
// given scale, using crypto/rand for the underlying uniform draw.
func Laplace(scale float64) float64 {
	u := uniform()*0.5 - 0.25 // (-0.25, 0.25); avoid the exact endpoints
	// Inverse CDF: x = -scale * sign(u) * ln(1 - 2|u|), with u in (-0.5, 0.5).
	// We doubled the margin above for numerical safety; rescale.
	u *= 2 // back to (-0.5, 0.5)
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	return -scale * sign * math.Log(1-2*u)
}

// uniform returns a cryptographically uniform float in [0, 1).
func uniform() float64 {
	const resolution = 1 << 53
	n, err := rand.Int(rand.Reader, big.NewInt(resolution))
	if err != nil {
		// crypto/rand failure is unrecoverable for a privacy mechanism.
		panic(fmt.Sprintf("dp: rand: %v", err))
	}
	return float64(n.Int64()) / resolution
}

// Accountant tracks cumulative epsilon spend against a total budget
// (basic sequential composition).
type Accountant struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// NewAccountant creates an accountant with the given total epsilon.
func NewAccountant(totalEpsilon float64) (*Accountant, error) {
	if totalEpsilon <= 0 {
		return nil, fmt.Errorf("dp: total epsilon must be positive, got %v", totalEpsilon)
	}
	return &Accountant{total: totalEpsilon}, nil
}

// Spend reserves eps from the budget, failing atomically if it would
// exceed the total.
func (a *Accountant) Spend(eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("dp: spend must be positive, got %v", eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent+eps > a.total+1e-12 {
		return ErrBudgetExhausted
	}
	a.spent += eps
	return nil
}

// Reset zeroes the spent budget, starting a fresh accounting epoch. Only
// meaningful under per-window privacy (the WindowReset index policy):
// guarantees then hold per epoch, not over the full history.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = 0
}

// RefreshPolicy selects how the index spends budget as updates arrive.
type RefreshPolicy int

// The supported policies.
const (
	// PerUpdate republishes noisy counts after every insert — the naive
	// policy the paper warns exhausts the budget at high update rates.
	PerUpdate RefreshPolicy = iota
	// Batched buffers updates and republishes every BatchSize inserts,
	// spending one epsilon per batch instead of one per update.
	Batched
	// WindowReset behaves like PerUpdate within an epoch of WindowSize
	// inserts but resets the accountant at each epoch boundary, modelling
	// per-window privacy budgets (continual observation over sliding
	// windows): old epochs' publications no longer count against the
	// budget, at the privacy cost that guarantees only hold per window.
	WindowReset
)

// IndexConfig configures a DP range index.
type IndexConfig struct {
	Domain     int64         // values are clamped into [0, Domain)
	Buckets    int           // histogram resolution
	EpsPerPub  float64       // epsilon spent per (re)publication
	Policy     RefreshPolicy // PerUpdate, Batched or WindowReset
	BatchSize  int           // Batched only: inserts per republication
	WindowSize int           // WindowReset only: inserts per budget epoch
	Accountant *Accountant   // shared budget
}

// Index is a differentially private range-count index over a bounded
// integer domain. True counts are kept internally (they model the
// owner-side plaintext); only noisy published counts are exposed to
// queries, and publication costs budget.
type Index struct {
	cfg IndexConfig

	mu           sync.Mutex
	truth        []int64   // exact bucket counts (owner side)
	published    []float64 // noisy counts (manager/query side)
	pubCount     int       // number of publications performed
	pending      int       // inserts since last publication (Batched)
	epochInserts int       // inserts in the current epoch (WindowReset)
	stale        bool      // truth has changed since last publication
}

// NewIndex validates the configuration and builds an empty index with one
// initial publication.
func NewIndex(cfg IndexConfig) (*Index, error) {
	if cfg.Domain < 1 {
		return nil, fmt.Errorf("dp: domain must be >= 1, got %d", cfg.Domain)
	}
	if cfg.Buckets < 1 || int64(cfg.Buckets) > cfg.Domain {
		return nil, fmt.Errorf("dp: buckets %d out of range [1, %d]", cfg.Buckets, cfg.Domain)
	}
	if cfg.EpsPerPub <= 0 {
		return nil, fmt.Errorf("dp: epsilon per publication must be positive")
	}
	if cfg.Policy == Batched && cfg.BatchSize < 1 {
		return nil, fmt.Errorf("dp: batched policy needs BatchSize >= 1")
	}
	if cfg.Policy == WindowReset && cfg.WindowSize < 1 {
		return nil, fmt.Errorf("dp: window-reset policy needs WindowSize >= 1")
	}
	if cfg.Accountant == nil {
		return nil, fmt.Errorf("dp: accountant required")
	}
	idx := &Index{
		cfg:       cfg,
		truth:     make([]int64, cfg.Buckets),
		published: make([]float64, cfg.Buckets),
	}
	if err := idx.publish(); err != nil {
		return nil, err
	}
	return idx, nil
}

// bucketOf maps a domain value to its bucket.
func (x *Index) bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= x.cfg.Domain {
		v = x.cfg.Domain - 1
	}
	b := int(v * int64(x.cfg.Buckets) / x.cfg.Domain)
	if b >= x.cfg.Buckets {
		b = x.cfg.Buckets - 1
	}
	return b
}

// publish draws fresh noise over all buckets, spending EpsPerPub.
// Sensitivity of the full histogram to one insert is 1, so each bucket
// gets Laplace(1/eps) noise.
func (x *Index) publish() error {
	if err := x.cfg.Accountant.Spend(x.cfg.EpsPerPub); err != nil {
		return err
	}
	scale := 1.0 / x.cfg.EpsPerPub
	for i, c := range x.truth {
		x.published[i] = float64(c) + Laplace(scale)
	}
	x.pubCount++
	x.pending = 0
	x.stale = false
	return nil
}

// Insert records a value and republishes according to the policy. Under
// PerUpdate every insert costs EpsPerPub; under Batched only every
// BatchSize-th insert does. Returns ErrBudgetExhausted when the budget
// cannot cover the required republication — the paper's "impossibility to
// support additional updates".
func (x *Index) Insert(v int64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.truth[x.bucketOf(v)]++
	x.stale = true
	x.pending++
	switch x.cfg.Policy {
	case PerUpdate:
		return x.publish()
	case Batched:
		if x.pending >= x.cfg.BatchSize {
			return x.publish()
		}
		return nil
	case WindowReset:
		x.epochInserts++
		if x.epochInserts > x.cfg.WindowSize {
			x.cfg.Accountant.Reset()
			x.epochInserts = 1
		}
		return x.publish()
	default:
		return fmt.Errorf("dp: unknown policy %d", x.cfg.Policy)
	}
}

// RangeCount estimates the number of inserted values in [lo, hi) from the
// published noisy histogram. It never touches the exact counts.
func (x *Index) RangeCount(lo, hi int64) float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if lo < 0 {
		lo = 0
	}
	if hi > x.cfg.Domain {
		hi = x.cfg.Domain
	}
	if lo >= hi {
		return 0
	}
	bLo := x.bucketOf(lo)
	bHi := x.bucketOf(hi - 1)
	sum := 0.0
	for b := bLo; b <= bHi; b++ {
		sum += x.published[b]
	}
	return sum
}

// TrueRangeCount is the owner-side exact count, for measuring error in
// experiments. Not part of the manager-facing API.
func (x *Index) TrueRangeCount(lo, hi int64) int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if lo < 0 {
		lo = 0
	}
	if hi > x.cfg.Domain {
		hi = x.cfg.Domain
	}
	if lo >= hi {
		return 0
	}
	bLo := x.bucketOf(lo)
	bHi := x.bucketOf(hi - 1)
	var sum int64
	for b := bLo; b <= bHi; b++ {
		sum += x.truth[b]
	}
	return sum
}

// Publications reports how many times the index republished (each one
// costs EpsPerPub).
func (x *Index) Publications() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.pubCount
}
