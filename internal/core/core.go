// Package core implements the PReVer framework itself — the paper's
// primary contribution: a universal pipeline for managing regulated
// dynamic data in a privacy-preserving manner.
//
// The framework follows Figure 2 of the paper:
//
//	(0) authorities define constraints and regulations,
//	(1) a data producer sends an update,
//	(2) the update is verified against regulations/constraints,
//	(3) the verified update is incorporated into the data,
//
// with an integrity layer (append-only ledger or permissioned blockchain)
// underneath so that any participant can later verify the stored data
// (Research Challenge 4).
//
// One engine is provided per research challenge:
//
//   - PlainManager — the non-private baseline the paper says every
//     solution must be compared against (TPC/YCSB comparisons, §6).
//   - EncryptedManager (RC1) — a single private database on an untrusted
//     manager: Paillier-encrypted aggregates, bound checks via a masked
//     comparison oracle, ledger-backed.
//   - ZKBoundManager (RC1, proof-carrying flavour) — the owner commits to
//     values and proves in zero knowledge that running totals satisfy
//     public bounds; the manager verifies proofs without seeing values.
//   - TokenFederation (RC2, centralized flavour) — Separ-style single-use
//     pseudonymous tokens enforce cross-platform budget regulations.
//   - MPCFederation (RC2, decentralized flavour) — federated managers
//     verify a bound over their private per-platform totals via
//     homomorphic aggregation and a masked-sign helper.
//   - PublicPIRManager (RC3) — public data with private updates:
//     credential-gated writes, PIR reads.
package core

import (
	"fmt"
	"time"

	"prever/internal/constraint"
	"prever/internal/store"
)

// Privacy labels a framework element (data, update, constraint) as public
// or private (§1: "the content of the stored data, the content of the
// updates and the constraints may be private or public").
type Privacy uint8

// Privacy levels.
const (
	Public Privacy = iota
	Private
)

// String names the privacy level.
func (p Privacy) String() string {
	if p == Private {
		return "private"
	}
	return "public"
}

// Role is a participant role (§3.1).
type Role uint8

// The four participant roles.
const (
	RoleProducer Role = iota + 1
	RoleOwner
	RoleManager
	RoleAuthority
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleProducer:
		return "data-producer"
	case RoleOwner:
		return "data-owner"
	case RoleManager:
		return "data-manager"
	case RoleAuthority:
		return "authority"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Threat is an adversarial model (§3.3).
type Threat uint8

// The threat models of §3.3.
const (
	Honest Threat = iota
	HonestButCurious
	Covert
	Malicious
)

// String names the threat model.
func (t Threat) String() string {
	switch t {
	case Honest:
		return "honest"
	case HonestButCurious:
		return "honest-but-curious"
	case Covert:
		return "covert"
	case Malicious:
		return "malicious"
	default:
		return fmt.Sprintf("Threat(%d)", uint8(t))
	}
}

// Participant describes one entity and its trust assumptions. A single
// entity may hold several roles (§3.1: "a single entity might assume
// multiple participant roles").
type Participant struct {
	ID       string
	Roles    []Role
	Threat   Threat
	Colludes bool // whether this participant may collude with others
}

// HasRole reports whether the participant holds the role.
func (p Participant) HasRole(r Role) bool {
	for _, have := range p.Roles {
		if have == r {
			return true
		}
	}
	return false
}

// ConstraintScope distinguishes internal constraints from regulations
// (§3.2): internal constraints bind one owner's database; regulations
// (from external authorities) may span the databases of multiple owners.
type ConstraintScope uint8

// Constraint scopes.
const (
	Internal ConstraintScope = iota
	Regulation
)

// String names the scope.
func (s ConstraintScope) String() string {
	if s == Regulation {
		return "regulation"
	}
	return "internal"
}

// Constraint is a named, labeled constraint: a Boolean function over the
// database and an incoming update.
type Constraint struct {
	Name    string
	Source  string // the constraint-language text
	Expr    constraint.Expr
	Scope   ConstraintScope
	Privacy Privacy
	// Authority identifies who defined it.
	Authority string
}

// NewConstraint parses and wraps constraint source text.
func NewConstraint(name, source string, scope ConstraintScope, privacy Privacy, authority string) (*Constraint, error) {
	expr, err := constraint.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("core: constraint %q: %w", name, err)
	}
	return &Constraint{
		Name:      name,
		Source:    source,
		Expr:      expr,
		Scope:     scope,
		Privacy:   privacy,
		Authority: authority,
	}, nil
}

// Update is one incoming state change (§3.2). The plaintext Row is the
// producer/owner-side view; engines that never see plaintext receive
// transformed payloads instead.
type Update struct {
	ID       string
	Producer string
	Table    string
	Key      string
	Row      store.Row
	TS       time.Time
	Privacy  Privacy
}

// Receipt reports the outcome of a submitted update.
type Receipt struct {
	UpdateID  string
	Accepted  bool
	Reason    string // populated on rejection
	Violated  string // name of the violated constraint, if any
	LedgerSeq uint64 // sequence in the integrity layer, if accepted
	// Spent lists the token serials consumed, for engines that enforce
	// regulations with single-use tokens (used by lower-bound settlement:
	// platforms issue work receipts against these serials).
	Spent []string
}

// ErrRejected wraps a constraint rejection for callers that prefer errors.
type ErrRejected struct {
	Receipt Receipt
}

func (e *ErrRejected) Error() string {
	return fmt.Sprintf("core: update %s rejected by %s: %s", e.Receipt.UpdateID, e.Receipt.Violated, e.Receipt.Reason)
}
