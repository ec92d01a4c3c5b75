package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/blind"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
	"prever/internal/store"
	"prever/internal/token"
)

// fedTaskSchema is the per-platform private record schema both federation
// engines maintain: who did how many regulated units, when.
var fedTaskSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "ts", Kind: store.KindTime},
)

// FedPlatform is one data manager in a federation: it keeps its own
// private records and its own ledger; it shares NOTHING in plaintext with
// the other platforms.
type FedPlatform struct {
	id     string
	tasks  *store.Table
	ledger *ledger.Ledger
	mu     sync.Mutex
}

func newFedPlatform(id string) *FedPlatform {
	return &FedPlatform{
		id:     id,
		tasks:  store.NewTable("tasks", fedTaskSchema),
		ledger: ledger.New(),
	}
}

// ID returns the platform id.
func (p *FedPlatform) ID() string { return p.id }

// Ledger exposes the platform's integrity layer.
func (p *FedPlatform) Ledger() *ledger.Ledger { return p.ledger }

// LocalHours sums this platform's recorded hours for a worker inside the
// window ending at `until` (the platform's own private view).
func (p *FedPlatform) LocalHours(worker string, window time.Duration, until time.Time) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	lo := until.Add(-window)
	p.tasks.ScanEq("worker", store.String_(worker), func(_ string, row store.Row) bool {
		if row["worker"].S != worker {
			return true
		}
		ts := row["ts"].T
		if window > 0 && (ts.Before(lo) || ts.After(until)) {
			return true
		}
		total += row["hours"].I
		return true
	})
	return total
}

// record applies an accepted task locally and anchors it.
func (p *FedPlatform) record(id, worker string, hours int64, ts time.Time) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	row := store.Row{
		"worker": store.String_(worker),
		"hours":  store.Int(hours),
		"ts":     store.Time(ts),
	}
	if err := p.tasks.Upsert(id, row); err != nil {
		return 0, err
	}
	rcpt, err := p.ledger.Put("task/"+id, []byte(fmt.Sprintf("%s,%d,%s", worker, hours, ts.UTC().Format(time.RFC3339))), worker, id)
	if err != nil {
		return 0, err
	}
	return rcpt.Seq, nil
}

// TaskSubmission is the federation-side update: a completed task.
type TaskSubmission struct {
	ID       string
	Worker   string
	Platform string
	Hours    int64
	TS       time.Time
}

// TokenFederation is the centralized RC2 engine (the Separ instantiation,
// §5): a trusted external authority issues each worker a budget of
// single-use pseudonymous tokens per period; a task of h hours costs h
// tokens; platforms verify tokens against the authority's public key and
// record spent serials in a SHARED spent store (in production the
// permissioned blockchain — see internal/separ). Platforms learn nothing
// about a worker's activity elsewhere; the regulation holds because the
// budget is enforced at issuance and double spends are caught at the
// shared store.
type TokenFederation struct {
	name      string
	stats     statsRecorder
	authority blind.PublicKey
	period    string
	spent     token.SpentStore

	mu        sync.Mutex
	platforms map[string]*FedPlatform
}

// NewTokenFederation builds the engine over a shared spent store.
func NewTokenFederation(name string, authority blind.PublicKey, period string, spent token.SpentStore, platformIDs []string) (*TokenFederation, error) {
	if spent == nil {
		return nil, errors.New("core: token federation needs a shared spent store")
	}
	if len(platformIDs) == 0 {
		return nil, errors.New("core: token federation needs platforms")
	}
	f := &TokenFederation{
		name:      name,
		authority: authority,
		period:    period,
		spent:     spent,
		platforms: make(map[string]*FedPlatform),
	}
	for _, id := range platformIDs {
		f.platforms[id] = newFedPlatform(id)
	}
	return f, nil
}

// Name identifies the engine.
func (f *TokenFederation) Name() string { return f.name }

// Stats reports the engine's submission counters.
func (f *TokenFederation) Stats() Stats { return f.stats.snapshot() }

// Platform returns a platform by id.
func (f *TokenFederation) Platform(id string) (*FedPlatform, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.platforms[id]
	return p, ok
}

// SubmitTask verifies a task submission by spending hours-many tokens
// from the worker's wallet at the named platform.
func (f *TokenFederation) SubmitTask(sub TaskSubmission, wallet *token.Wallet) (r Receipt, err error) {
	start := time.Now()
	defer func() { f.stats.record(start, r, err) }()
	f.mu.Lock()
	platform, ok := f.platforms[sub.Platform]
	f.mu.Unlock()
	if !ok {
		return Receipt{}, fmt.Errorf("core: unknown platform %q", sub.Platform)
	}
	if sub.Hours < 1 {
		return Receipt{}, fmt.Errorf("core: task hours must be >= 1, got %d", sub.Hours)
	}
	// Spend one token per regulated unit. A failure mid-way (exhausted
	// wallet = exceeded budget; double spend = replayed token) rejects the
	// whole task; tokens already spent stay spent, as in Separ, where a
	// worker presenting insufficient tokens forfeits them.
	spent := make([]string, 0, sub.Hours)
	for i := int64(0); i < sub.Hours; i++ {
		tok, err := wallet.Next()
		if err != nil {
			return Receipt{
				UpdateID: sub.ID,
				Accepted: false,
				Violated: f.name,
				Reason:   fmt.Sprintf("budget exhausted after %d/%d tokens: %v", i, sub.Hours, err),
			}, nil
		}
		if err := token.Spend(f.authority, f.spent, tok, f.period); err != nil {
			return Receipt{
				UpdateID: sub.ID,
				Accepted: false,
				Violated: f.name,
				Reason:   fmt.Sprintf("token %d/%d rejected: %v", i+1, sub.Hours, err),
			}, nil
		}
		spent = append(spent, tok.Serial)
	}
	seq, err := platform.record(sub.ID, sub.Worker, sub.Hours, sub.TS)
	if err != nil {
		return Receipt{}, err
	}
	return Receipt{UpdateID: sub.ID, Accepted: true, LedgerSeq: seq, Spent: spent}, nil
}

// TaskLane is the batch ordering key for federation tasks: per-worker
// ordering, matching the per-worker regulations both federations enforce.
func TaskLane(s TaskSubmission) string { return s.Worker }

// SubmitTasks is the batch path: tasks fan out by worker
// (token verification is independent per task; one worker's tasks stay
// ordered so the budget drains deterministically). wallets maps each
// worker to the wallet holding their period budget.
func (f *TokenFederation) SubmitTasks(subs []TaskSubmission, wallets map[string]*token.Wallet) ([]Receipt, error) {
	return SubmitGrouped(eachInOrder(func(sub TaskSubmission) (Receipt, error) {
		w, ok := wallets[sub.Worker]
		if !ok {
			return Receipt{}, fmt.Errorf("core: no wallet for worker %q", sub.Worker)
		}
		return f.SubmitTask(sub, w)
	}), TaskLane, subs)
}

// MPCFederation is the decentralized RC2 engine: no token authority. When
// a task arrives at a platform, every platform contributes its private
// in-window total for that worker, encrypted under a semi-trusted helper's
// Paillier key; the receiving platform homomorphically adds the new hours
// and runs the masked bound check. Platforms never see each other's
// totals; the helper sees only a masked difference and the verdict.
type MPCFederation struct {
	name   string
	stats  statsRecorder
	bound  int64
	window time.Duration
	pk     *he.PublicKey
	oracle mpc.SignOracle
	inc    *incrementalCache // non-nil in incremental mode

	mu        sync.Mutex
	platforms map[string]*FedPlatform
}

// checkBoundWithOracle routes through the mpc package's masked comparison.
func checkBoundWithOracle(pk *he.PublicKey, oracle mpc.SignOracle, inputs []*he.Ciphertext, bound int64) (bool, error) {
	return mpc.CheckBound(pk, oracle, inputs, bound)
}

// NewMPCFederation builds the engine. bound is the regulation's cap over
// `window` (e.g. 40 hours over 168h for FLSA).
func NewMPCFederation(name string, pk *he.PublicKey, oracle mpc.SignOracle, bound int64, window time.Duration, platformIDs []string) (*MPCFederation, error) {
	if pk == nil || oracle == nil {
		return nil, errors.New("core: mpc federation needs the helper key and oracle")
	}
	if len(platformIDs) == 0 {
		return nil, errors.New("core: mpc federation needs platforms")
	}
	f := &MPCFederation{
		name:      name,
		bound:     bound,
		window:    window,
		pk:        pk,
		oracle:    oracle,
		platforms: make(map[string]*FedPlatform),
	}
	for _, id := range platformIDs {
		f.platforms[id] = newFedPlatform(id)
	}
	return f, nil
}

// Name identifies the engine.
func (f *MPCFederation) Name() string { return f.name }

// Stats reports the engine's submission counters.
func (f *MPCFederation) Stats() Stats { return f.stats.snapshot() }

// Platform returns a platform by id.
func (f *MPCFederation) Platform(id string) (*FedPlatform, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.platforms[id]
	return p, ok
}

// SubmitTaskBatch fans a batch out by worker: the helper is
// stateless and each platform's records are internally synchronized, so
// different workers' bound checks run concurrently while one worker's
// tasks verify in order (required: each check reads the totals the
// previous accept wrote).
func (f *MPCFederation) SubmitTaskBatch(subs []TaskSubmission) ([]Receipt, error) {
	return SubmitGrouped(eachInOrder(f.SubmitTask), TaskLane, subs)
}

// SubmitTask runs the federated verification: each platform encrypts its
// private in-window total for the worker; the bound check covers
// (Σ totals) + hours <= bound.
func (f *MPCFederation) SubmitTask(sub TaskSubmission) (r Receipt, err error) {
	start := time.Now()
	defer func() { f.stats.record(start, r, err) }()
	f.mu.Lock()
	target, ok := f.platforms[sub.Platform]
	platforms := make([]*FedPlatform, 0, len(f.platforms))
	for _, p := range f.platforms {
		platforms = append(platforms, p)
	}
	f.mu.Unlock()
	if !ok {
		return Receipt{}, fmt.Errorf("core: unknown platform %q", sub.Platform)
	}
	if sub.Hours < 1 {
		return Receipt{}, fmt.Errorf("core: task hours must be >= 1, got %d", sub.Hours)
	}
	if f.inc != nil {
		return f.submitIncremental(sub, target, platforms)
	}
	inputs := make([]*he.Ciphertext, 0, len(platforms)+1)
	for _, p := range platforms {
		local := p.LocalHours(sub.Worker, f.window, sub.TS)
		ct, err := mpc.EncryptInput(f.pk, local)
		if err != nil {
			return Receipt{}, err
		}
		inputs = append(inputs, ct)
	}
	newHours, err := mpc.EncryptInput(f.pk, sub.Hours)
	if err != nil {
		return Receipt{}, err
	}
	inputs = append(inputs, newHours)
	okBound, err := mpc.CheckBound(f.pk, f.oracle, inputs, f.bound)
	if err != nil {
		return Receipt{}, fmt.Errorf("core: federated bound check: %w", err)
	}
	if !okBound {
		return Receipt{
			UpdateID: sub.ID,
			Accepted: false,
			Violated: f.name,
			Reason:   fmt.Sprintf("federated regulation %q not satisfied", f.name),
		}, nil
	}
	seq, err := target.record(sub.ID, sub.Worker, sub.Hours, sub.TS)
	if err != nil {
		return Receipt{}, err
	}
	return Receipt{UpdateID: sub.ID, Accepted: true, LedgerSeq: seq}, nil
}
