// Package separ implements the paper's Section 5 instantiation of PReVer:
// Separ, a privacy-preserving multi-platform crowdworking system. Workers
// (data producers/owners) complete tasks on mutually distrustful platforms
// (data managers); a trusted external authority (the regulator) issues
// each worker a per-period budget of single-use pseudonymous tokens; and
// the spent-token registry — the global system state — lives on a
// permissioned blockchain shared by the platforms (SharPer in the paper,
// our internal/chain here), giving immutability and verifiability.
//
// Configuration matches the paper's description: the data and updates are
// private, the constraints (upper-bound regulations like FLSA's 40 h/week)
// are public, the database is federated, and enforcement is centralized
// token-based.
package separ

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/blind"
	"prever/internal/chain"
	"prever/internal/core"
	"prever/internal/netsim"
	"prever/internal/token"
	"prever/internal/workload"
)

// Config sizes a Separ deployment.
type Config struct {
	Platforms []string // platform (data manager) names
	Budget    int      // tokens per worker per period (e.g. 40 for FLSA)
	Period    string   // regulation period label (e.g. "2022-W13")
	// UseChain stores spent tokens on a permissioned blockchain shared by
	// the platforms (the paper's design). False uses a plain shared store
	// (faster; for unit tests and ablations).
	UseChain bool
	// ChainF is the number of Byzantine peers the chain tolerates.
	ChainF int
	// AuthorityKeyBits sizes the token authority's RSA key.
	AuthorityKeyBits int
}

func (c *Config) withDefaults() {
	if len(c.Platforms) == 0 {
		c.Platforms = []string{"platform-0", "platform-1"}
	}
	if c.Budget <= 0 {
		c.Budget = 40
	}
	if c.Period == "" {
		c.Period = "2022-W13"
	}
	if c.ChainF <= 0 {
		c.ChainF = 1
	}
	if c.AuthorityKeyBits <= 0 {
		c.AuthorityKeyBits = 1024
	}
}

// System is a running Separ deployment.
type System struct {
	cfg       Config
	authority *token.Authority
	fed       *core.TokenFederation
	net       *netsim.Network
	shard     *chain.Shard
	issuers   map[string]*receiptIssuer // per-platform receipt signers

	mu       sync.Mutex
	wallets  map[string]*token.Wallet
	receipts map[string][]WorkReceipt // worker -> accumulated work receipts
}

// New boots a Separ system.
func New(cfg Config) (*System, error) {
	cfg.withDefaults()
	auth, err := token.NewAuthority(cfg.AuthorityKeyBits, nil)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		authority: auth,
		wallets:   make(map[string]*token.Wallet),
		receipts:  make(map[string][]WorkReceipt),
		issuers:   make(map[string]*receiptIssuer),
	}
	for _, pid := range cfg.Platforms {
		signer, err := blind.NewSigner(cfg.AuthorityKeyBits, nil)
		if err != nil {
			return nil, err
		}
		s.issuers[pid] = &receiptIssuer{signer: signer, pub: signer.Public()}
	}
	var spent token.SpentStore
	if cfg.UseChain {
		s.net = netsim.New(netsim.Config{})
		shard, err := chain.NewShard(s.net, chain.ShardConfig{
			Name:    "separ",
			F:       cfg.ChainF,
			Timeout: 10 * time.Second,
		})
		if err != nil {
			s.net.Close()
			return nil, err
		}
		s.shard = shard
		spent = &chainSpentStore{shard: shard, node: "separ-client"}
	} else {
		spent = token.NewMemorySpentStore()
	}
	fed, err := core.NewTokenFederation("separ/"+cfg.Period, auth.PublicKey(), cfg.Period, spent, cfg.Platforms)
	if err != nil {
		if s.net != nil {
			s.net.Close()
		}
		return nil, err
	}
	s.fed = fed
	return s, nil
}

// Close shuts down the chain network, if any.
func (s *System) Close() {
	if s.net != nil {
		s.net.Close()
	}
}

// Authority exposes the regulator (e.g. to inspect issuance counts).
func (s *System) Authority() *token.Authority { return s.authority }

// Platform returns a platform's local state.
func (s *System) Platform(id string) (*core.FedPlatform, bool) { return s.fed.Platform(id) }

// Chain returns the shared blockchain (nil when UseChain is false).
func (s *System) Chain() *chain.Shard { return s.shard }

// RegisterWorker issues the worker's full token budget for the period.
// The issuance is blind: the authority never learns the serials it signs.
func (s *System) RegisterWorker(worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.wallets[worker]; dup {
		return fmt.Errorf("separ: worker %s already registered", worker)
	}
	w, err := token.NewWallet(s.authority.PublicKey(), s.cfg.Period, s.cfg.Budget, nil)
	if err != nil {
		return err
	}
	sigs, err := s.authority.IssueBudget(worker, s.cfg.Period, w.BlindedRequests(), s.cfg.Budget)
	if err != nil {
		return err
	}
	if err := w.Finalize(sigs); err != nil {
		return err
	}
	s.wallets[worker] = w
	return nil
}

// Remaining reports the worker's unspent budget.
func (s *System) Remaining(worker string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.wallets[worker]
	if !ok {
		return 0, fmt.Errorf("separ: worker %s not registered", worker)
	}
	return w.Remaining(), nil
}

// CompleteTask submits a completed task: the worker spends Hours tokens
// at the platform; platforms verify and share only spent serials.
func (s *System) CompleteTask(ev workload.TaskEvent) (core.Receipt, error) {
	s.mu.Lock()
	wallet, ok := s.wallets[ev.Worker]
	s.mu.Unlock()
	if !ok {
		return core.Receipt{}, fmt.Errorf("separ: worker %s not registered", ev.Worker)
	}
	r, err := s.fed.SubmitTask(core.TaskSubmission{
		ID:       ev.ID,
		Worker:   ev.Worker,
		Platform: ev.Platform,
		Hours:    ev.Hours,
		TS:       ev.TS,
	}, wallet)
	if err != nil || !r.Accepted {
		return r, err
	}
	// The platform issues one signed work receipt per accepted unit; the
	// worker keeps them for lower-bound settlement at period end.
	if issuer, ok := s.issuers[ev.Platform]; ok {
		s.mu.Lock()
		for _, serial := range r.Spent {
			s.receipts[ev.Worker] = append(s.receipts[ev.Worker], WorkReceipt{
				Serial:   serial,
				Period:   s.cfg.Period,
				Platform: ev.Platform,
				Sig:      issuer.signer.SignMessage(receiptMessage(serial, s.cfg.Period, ev.Platform)),
			})
		}
		s.mu.Unlock()
	}
	return r, nil
}

// PlatformReceiptKeys returns each platform's receipt-verification key,
// handed to the authority for lower-bound settlement.
func (s *System) PlatformReceiptKeys() map[string]blind.PublicKey {
	out := make(map[string]blind.PublicKey, len(s.issuers))
	for pid, iss := range s.issuers {
		out[pid] = iss.pub
	}
	return out
}

// WorkerReceipts returns the receipts a worker has accumulated (the
// worker-side receipt box).
func (s *System) WorkerReceipts(worker string) []WorkReceipt {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WorkReceipt(nil), s.receipts[worker]...)
}

// Replay runs a whole trace, returning per-outcome counts.
func (s *System) Replay(events []workload.TaskEvent) (accepted, rejected int, err error) {
	for _, ev := range events {
		r, rerr := s.CompleteTask(ev)
		if rerr != nil {
			return accepted, rejected, rerr
		}
		if r.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	return accepted, rejected, nil
}

// AuditChain verifies the blockchain's integrity on every peer. Returns
// an error describing the first problem found, or nil when UseChain is
// false or the chain is clean.
func (s *System) AuditChain() error {
	if s.shard == nil {
		return nil
	}
	for _, p := range s.shard.Peers() {
		if bad, err := chain.VerifyBlocks(p.Blocks()); bad != -1 {
			return fmt.Errorf("separ: peer %s block %d: %w", p.ID(), bad, err)
		}
	}
	// All peers must agree on the chain head.
	peers := s.shard.Peers()
	if len(peers) > 1 {
		ref := peers[0].Blocks()
		for _, p := range peers[1:] {
			blocks := p.Blocks()
			n := len(ref)
			if len(blocks) < n {
				n = len(blocks)
			}
			for i := 0; i < n; i++ {
				if blocks[i].Hash != ref[i].Hash {
					return errors.New("separ: peers diverge on chain history")
				}
			}
		}
	}
	return nil
}

// chainSpentStore is a token.SpentStore backed by the permissioned
// blockchain: every spend is ordered by consensus with first-writer-wins
// semantics, so mutually distrustful platforms share one tamper-evident
// double-spend registry (Research Challenge 4 applied to tokens — exactly
// Separ's use of SharPer).
type chainSpentStore struct {
	shard *chain.Shard
	node  string // this platform's claim identity
	seq   sync.Mutex
	n     uint64
}

// MarkSpent implements token.SpentStore: it orders a put-once transaction
// and then reads back who won.
func (c *chainSpentStore) MarkSpent(serial string) (bool, error) {
	c.seq.Lock()
	c.n++
	claim := fmt.Sprintf("%s/%d", c.node, c.n)
	c.seq.Unlock()
	key := "spent/" + serial
	if res := <-c.shard.SubmitAsync(chain.Tx{Kind: chain.TxPutOnce, Key: key, Value: []byte(claim)}); res.Err != nil {
		return false, res.Err
	}
	// Read back from a local peer: by commit time the winner is fixed.
	winner, err := c.shard.Peers()[0].Get(key)
	if err != nil {
		return false, fmt.Errorf("separ: spent read-back: %w", err)
	}
	return string(winner) != claim, nil
}
