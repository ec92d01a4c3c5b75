// Package prever is the public API of the PReVer framework — a
// reproduction of "PReVer: Towards Private Regulated Verified Data"
// (Amiri, Allard, Agrawal, El Abbadi — EDBT 2022).
//
// PReVer manages REGULATED DYNAMIC DATA in a privacy-preserving manner:
// updates arrive at (possibly untrusted) data managers, are verified
// against constraints and regulations, incorporated into the data, and
// anchored in an append-only verifiable store — while the data, the
// updates and/or the constraints stay private.
//
// # Choosing an engine
//
// Pick by the three criteria the paper gives (§5): is the data private or
// public, is the database single or federated, and is enforcement
// centralized or decentralized.
//
//   - Single private database on an untrusted manager (RC1):
//     NewEncryptedManager (Paillier + comparison oracle) or
//     NewZKBoundManager (owner-produced zero-knowledge bound proofs).
//   - Federated private databases (RC2): NewTokenFederation (Separ-style
//     single-use pseudonymous tokens, centralized authority) or
//     NewMPCFederationSetup (secure aggregation, decentralized).
//   - Public data with private updates (RC3): NewPublicPIRSetup
//     (credential-gated writes, PIR reads).
//   - Non-private baseline for comparisons (§6): NewPlainManager.
//
// Integrity (RC4) is built in: single-database engines write a
// centralized ledger (inclusion/consistency proofs, audits); federated
// deployments can anchor shared state on the permissioned blockchain.
//
// # Quick start
//
// See examples/quickstart for the Figure-2 pipeline end to end; the other
// examples map one-to-one onto the paper's Figure 1 scenarios.
package prever

import (
	"math/big"
	"time"

	"prever/internal/blind"
	"prever/internal/chain"
	"prever/internal/commit"
	"prever/internal/constraint"
	"prever/internal/core"
	"prever/internal/dp"
	"prever/internal/group"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
	"prever/internal/netsim"
	"prever/internal/pir"
	"prever/internal/separ"
	"prever/internal/store"
	"prever/internal/token"
	"prever/internal/workload"
)

// Version identifies this release of the library.
const Version = "1.0.0"

// Core framework types (§3 of the paper).
type (
	// Update is one incoming state change.
	Update = core.Update
	// Receipt reports an update's outcome.
	Receipt = core.Receipt
	// Constraint is a named, privacy-labeled constraint or regulation.
	Constraint = core.Constraint
	// Participant is an entity with roles and a threat model.
	Participant = core.Participant
	// Privacy labels data/updates/constraints public or private.
	Privacy = core.Privacy
	// Role is a participant role.
	Role = core.Role
	// Threat is an adversarial model.
	Threat = core.Threat
	// ConstraintScope separates internal constraints from regulations.
	ConstraintScope = core.ConstraintScope
)

// Privacy, role, threat and scope constants.
const (
	Public  = core.Public
	Private = core.Private

	RoleProducer  = core.RoleProducer
	RoleOwner     = core.RoleOwner
	RoleManager   = core.RoleManager
	RoleAuthority = core.RoleAuthority

	Honest           = core.Honest
	HonestButCurious = core.HonestButCurious
	Covert           = core.Covert
	Malicious        = core.Malicious

	Internal   = core.Internal
	Regulation = core.Regulation
)

// Engines.
type (
	// PlainManager is the non-private baseline engine.
	PlainManager = core.PlainManager
	// EncryptedManager is the RC1 engine over Paillier ciphertexts.
	EncryptedManager = core.EncryptedManager
	// EncryptedUpdate is its ciphertext-side update.
	EncryptedUpdate = core.EncryptedUpdate
	// ZKBoundManager is the RC1 proof-carrying engine.
	ZKBoundManager = core.ZKBoundManager
	// ZKOwner produces commitments and bound proofs for it.
	ZKOwner = core.ZKOwner
	// ZKUpdate is its proof-carrying update.
	ZKUpdate = core.ZKUpdate
	// TokenFederation is the RC2 centralized engine.
	TokenFederation = core.TokenFederation
	// MPCFederation is the RC2 decentralized engine.
	MPCFederation = core.MPCFederation
	// TaskSubmission is the federation-side update.
	TaskSubmission = core.TaskSubmission
	// PublicPIRManager is the RC3 engine.
	PublicPIRManager = core.PublicPIRManager
	// PublicEntry is one public record it stores.
	PublicEntry = core.PublicEntry
	// BoundSpec is a compiled bound constraint for the encrypted engine.
	BoundSpec = core.BoundSpec
)

// Storage and integrity substrates.
type (
	// Ledger is the centralized verifiable ledger database.
	Ledger = ledger.Ledger
	// LedgerDigest is a verifiable ledger summary.
	LedgerDigest = ledger.Digest
	// Table is a schema-checked table of each key's latest row.
	Table = store.Table
	// Schema types a table.
	Schema = store.Schema
	// Column is one schema column.
	Column = store.Column
	// Row maps column names to values.
	Row = store.Row
	// Value is a dynamically typed cell.
	Value = store.Value
)

// Separ is the paper's §5 crowdworking instantiation.
type (
	// SeparSystem is a running Separ deployment.
	SeparSystem = separ.System
	// SeparConfig sizes it.
	SeparConfig = separ.Config
)

// Cryptographic value types applications handle opaquely.
type (
	// HECiphertext is a Paillier ciphertext (RC1 encrypted updates).
	HECiphertext = he.Ciphertext
	// HEPublicKey encrypts update fields for the encrypted engine.
	HEPublicKey = he.PublicKey
	// Token is a single-use pseudonymous spend credential.
	Token = token.Token
	// TokenWallet holds a participant's tokens for one period.
	TokenWallet = token.Wallet
	// TokenAuthority issues token budgets.
	TokenAuthority = token.Authority
	// BlindPublicKey verifies authority-issued tokens.
	BlindPublicKey = blind.PublicKey
	// Commitment is a Pedersen commitment (ZK engine).
	Commitment = commit.Commitment
)

// Constructors (thin veneers over the internal packages; every returned
// type's methods are documented on the type).

// NewConstraint parses constraint source text into a labeled constraint.
func NewConstraint(name, source string, scope ConstraintScope, privacy Privacy, authority string) (*Constraint, error) {
	return core.NewConstraint(name, source, scope, privacy, authority)
}

// ParseConstraint parses constraint source into its AST (for tooling).
func ParseConstraint(source string) (constraint.Expr, error) {
	return constraint.Parse(source)
}

// NewPlainManager builds the non-private baseline.
func NewPlainManager(name string) *PlainManager {
	return core.NewPlainManager(name, nil)
}

// NewTable builds a table from columns.
func NewTable(name string, cols ...Column) (*Table, error) {
	schema, err := store.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return store.NewTable(name, schema), nil
}

// AuditLedger re-verifies an exported journal against a trusted digest.
func AuditLedger(entries []ledger.Entry, d LedgerDigest) ledger.AuditReport {
	return ledger.Audit(entries, d)
}

// EncryptedSetup bundles everything the RC1 Paillier engine needs.
type EncryptedSetup struct {
	Manager *EncryptedManager
	// Key encrypts update fields (give it to producers/owners).
	Key *he.PublicKey
	// Helper holds the comparison trapdoor (NOT given to the manager).
	Helper *mpc.Helper
}

// NewEncryptedManager compiles a bound constraint and builds the RC1
// engine with a fresh Paillier helper of the given key size.
func NewEncryptedManager(name, constraintSource string, keyBits int) (*EncryptedSetup, error) {
	expr, err := constraint.Parse(constraintSource)
	if err != nil {
		return nil, err
	}
	form, ok := constraint.CompileBound(expr)
	if !ok {
		return nil, &NotLinearError{Source: constraintSource}
	}
	spec, err := core.DeriveBoundSpec(name, form)
	if err != nil {
		return nil, err
	}
	helper, err := mpc.NewHelper(keyBits)
	if err != nil {
		return nil, err
	}
	m, err := core.NewEncryptedManager(name, helper.PublicKey(), helper, spec)
	if err != nil {
		return nil, err
	}
	return &EncryptedSetup{Manager: m, Key: helper.PublicKey(), Helper: helper}, nil
}

// NewEncryptedManagerMulti compiles several named bound constraints and
// builds an RC1 engine that enforces all of them; an update is
// incorporated only if every bound holds.
func NewEncryptedManagerMulti(name string, constraintSources map[string]string, keyBits int) (*EncryptedSetup, error) {
	specs := make([]*core.BoundSpec, 0, len(constraintSources))
	for cname, src := range constraintSources {
		expr, err := constraint.Parse(src)
		if err != nil {
			return nil, err
		}
		form, ok := constraint.CompileBound(expr)
		if !ok {
			return nil, &NotLinearError{Source: src}
		}
		spec, err := core.DeriveBoundSpec(cname, form)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	helper, err := mpc.NewHelper(keyBits)
	if err != nil {
		return nil, err
	}
	m, err := core.NewEncryptedManagerMulti(name, helper.PublicKey(), helper, specs)
	if err != nil {
		return nil, err
	}
	return &EncryptedSetup{Manager: m, Key: helper.PublicKey(), Helper: helper}, nil
}

// NotLinearError reports a constraint outside the linear-bound class the
// encrypted engines support.
type NotLinearError struct {
	Source string
}

func (e *NotLinearError) Error() string {
	return "prever: constraint is not a linear bound (Σ terms ≤ B): " + e.Source
}

// EncryptInt encrypts a value under the engine's key (producer side).
func EncryptInt(key *he.PublicKey, v int64) (*he.Ciphertext, error) {
	return key.EncryptInt(v, nil)
}

// ZKSetup bundles the proof-carrying RC1 engine with its owner side.
type ZKSetup struct {
	Manager *ZKBoundManager
	Owner   *ZKOwner
}

// NewZKBoundManager builds the proof-carrying RC1 engine over the fixed
// 2048-bit group (use NewZKBoundManagerWithGroup for test-sized groups).
func NewZKBoundManager(name string, bound int64) (*ZKSetup, error) {
	return NewZKBoundManagerWithGroup(name, bound, group.MODP2048())
}

// NewZKBoundManagerWithGroup is NewZKBoundManager over an explicit group.
func NewZKBoundManagerWithGroup(name string, bound int64, g *group.Group) (*ZKSetup, error) {
	params := commit.NewParams(g)
	m, err := core.NewZKBoundManager(name, params, bound)
	if err != nil {
		return nil, err
	}
	return &ZKSetup{Manager: m, Owner: core.NewZKOwner(params, name, bound)}, nil
}

// TestGroup returns a small, fast Schnorr group for examples and tests.
func TestGroup() *group.Group { return group.TestGroup() }

// TokenFederationSetup bundles the RC2 centralized engine with its
// authority.
type TokenFederationSetup struct {
	Federation *TokenFederation
	Authority  *token.Authority
}

// NewTokenFederation builds the RC2 centralized engine with a fresh
// authority and an in-memory shared spent store.
func NewTokenFederation(name, period string, platforms []string, authorityKeyBits int) (*TokenFederationSetup, error) {
	auth, err := token.NewAuthority(authorityKeyBits, nil)
	if err != nil {
		return nil, err
	}
	fed, err := core.NewTokenFederation(name, auth.PublicKey(), period, token.NewMemorySpentStore(), platforms)
	if err != nil {
		return nil, err
	}
	return &TokenFederationSetup{Federation: fed, Authority: auth}, nil
}

// MPCFederationSetup bundles the RC2 decentralized engine with its
// semi-trusted helper (the comparison trapdoor — NOT given to platforms).
type MPCFederationSetup struct {
	Federation *MPCFederation
	Helper     *mpc.Helper
}

// NewMPCFederationSetup builds the RC2 decentralized engine with a fresh
// helper.
func NewMPCFederationSetup(name string, bound int64, window time.Duration, platforms []string, keyBits int) (*MPCFederationSetup, error) {
	helper, err := mpc.NewHelper(keyBits)
	if err != nil {
		return nil, err
	}
	fed, err := core.NewMPCFederation(name, helper.PublicKey(), helper, bound, window, platforms)
	if err != nil {
		return nil, err
	}
	return &MPCFederationSetup{Federation: fed, Helper: helper}, nil
}

// PublicPIRSetup bundles the RC3 engine with its credential authority.
type PublicPIRSetup struct {
	Manager *PublicPIRManager
	// Authority issues the blind-signed credentials producers spend.
	Authority *token.Authority
}

// NewPublicPIRSetup builds the RC3 engine with a fresh credential
// authority.
func NewPublicPIRSetup(name, event string, blockSize, authorityKeyBits int) (*PublicPIRSetup, error) {
	auth, err := token.NewAuthority(authorityKeyBits, nil)
	if err != nil {
		return nil, err
	}
	m, err := core.NewPublicPIRManager(name, auth.PublicKey(), event, blockSize)
	if err != nil {
		return nil, err
	}
	return &PublicPIRSetup{Manager: m, Authority: auth}, nil
}

// NewSepar boots the §5 Separ instantiation.
func NewSepar(cfg SeparConfig) (*SeparSystem, error) { return separ.New(cfg) }

// Column kind constants for NewTable.
const (
	KindInt    = store.KindInt
	KindFloat  = store.KindFloat
	KindString = store.KindString
	KindBool   = store.KindBool
	KindTime   = store.KindTime
)

// Value constructors.
var (
	// Int wraps an int64 cell value.
	Int = store.Int
	// Float wraps a float64 cell value.
	Float = store.Float
	// Str wraps a string cell value.
	Str = store.String_
	// Bool wraps a bool cell value.
	Bool = store.Bool
	// Time wraps a time.Time cell value.
	Time = store.Time
)

// Re-exported substrate helpers commonly needed by applications.

// NewPIRDatabase builds a two-server PIR database (RC3 building block).
func NewPIRDatabase(blockSize int) (*pir.Database, error) { return pir.NewDatabase(blockSize) }

// NewDPAccountant builds a privacy-budget accountant.
func NewDPAccountant(totalEpsilon float64) (*dp.Accountant, error) {
	return dp.NewAccountant(totalEpsilon)
}

// NewDPIndex builds a differentially private range index.
func NewDPIndex(cfg dp.IndexConfig) (*dp.Index, error) { return dp.NewIndex(cfg) }

// NetworkConfig configures the simulated network (node count,
// latency distribution, drop rate, seed).
type NetworkConfig = netsim.Config

// Network is the simulated message fabric consensus replicas run on.
type Network = netsim.Network

// NewNetwork builds a simulated network for distributed deployments.
func NewNetwork(cfg NetworkConfig) *Network { return netsim.New(cfg) }

// The permissioned-chain surface, re-exported so external consumers
// (who cannot import internal/chain) can configure shards, construct
// transactions, and branch on the typed submission sentinels.
type (
	// Shard is one permissioned-chain shard (3f+1 PBFT replicas).
	Shard = chain.Shard
	// ShardConfig configures one chain shard (name, f, collections,
	// timeout, mempool sizes, transaction size bound).
	ShardConfig = chain.ShardConfig
	// ChainTx is one blockchain transaction.
	ChainTx = chain.Tx
	// ChainTxKind is the transaction type (TxPut, TxPutOnce, TxDelete).
	ChainTxKind = chain.TxKind
	// ChainResult is the outcome of one asynchronous chain submission.
	ChainResult = chain.Result
	// ChainStats is the unified submission/mempool/batch statistics
	// struct — the same JSON shape prever-server serves at /stats.
	ChainStats = chain.Stats
)

// Chain transaction kinds usable on the submission surface.
const (
	TxPut     = chain.TxPut
	TxPutOnce = chain.TxPutOnce
	TxDelete  = chain.TxDelete
)

// Typed submission sentinels (match with errors.Is; the HTTP API maps
// them to status codes and the wire client maps them back).
var (
	// ErrPoolFull is admission-control backpressure: back off and retry.
	ErrPoolFull = chain.ErrPoolFull
	// ErrDuplicate acks a resubmission of an already-committed
	// transaction — a success with a flag, not a failure.
	ErrDuplicate = chain.ErrDuplicate
	// ErrShardClosed means the submission front end has shut down.
	ErrShardClosed = chain.ErrShardClosed
	// ErrTxTooLarge rejects transactions over the runtime size limit.
	ErrTxTooLarge = chain.ErrTxTooLarge
)

// NewShard builds a permissioned-blockchain shard over a network.
func NewShard(n *netsim.Network, cfg ShardConfig) (*chain.Shard, error) {
	return chain.NewShard(n, cfg)
}

// NewWallet prepares blinded token requests for a period (producer side
// of token-based engines).
func NewWallet(pub blind.PublicKey, period string, n int) (*token.Wallet, error) {
	return token.NewWallet(pub, period, n, nil)
}

// Workload generators for evaluation.
type (
	// YCSBConfig sizes a YCSB generator.
	YCSBConfig = workload.YCSBConfig
	// CrowdworkConfig sizes a crowdworking trace generator.
	CrowdworkConfig = workload.CrowdworkConfig
)

// NewYCSB builds a YCSB core-workload generator.
func NewYCSB(cfg YCSBConfig) (*workload.YCSB, error) { return workload.NewYCSB(cfg) }

// NewCrowdwork builds a crowdworking trace generator.
func NewCrowdwork(cfg CrowdworkConfig) (*workload.Crowdwork, error) {
	return workload.NewCrowdwork(cfg)
}

// BigInt re-exports math/big construction for APIs that take *big.Int.
func BigInt(v int64) *big.Int { return big.NewInt(v) }

// EngineStats are the per-engine submission counters and latency
// histogram every engine exposes via its Stats method. Snapshots are
// tear-free; LatencySummary carries p50/p95/p99/max.
type EngineStats = core.Stats

// LatencySummary is the condensed latency histogram inside EngineStats.
type LatencySummary = core.LatencySummary

// CredentialedEntry pairs a public entry with its private credential —
// the RC3 batch submission unit.
type CredentialedEntry = core.CredentialedEntry
