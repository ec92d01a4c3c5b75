// Package token implements Separ-style single-use pseudonymous tokens, the
// centralized mechanism PReVer proposes for Research Challenge 2: enforcing
// budget regulations (e.g. FLSA's 40 work-hours per week) across mutually
// distrustful platforms without revealing any participant's per-platform
// activity.
//
// Protocol roles:
//
//   - The Authority (an external regulator) issues each participant a
//     budget of tokens per period — one token per regulated unit (an hour
//     of work, a completed task). Issuance uses blind signatures, so the
//     authority cannot link a token it later sees spent back to the
//     participant it was issued to.
//   - The participant holds a Wallet of unlinkable tokens.
//   - A Platform (data manager) accepts an update only with a valid,
//     unspent token per unit; it verifies the authority's signature and
//     records the serial in a shared SpentStore (in production, the
//     permissioned blockchain; here also an in-memory store for tests).
//
// The regulation holds globally because the authority issues at most
// `budget` tokens per participant per period, and every platform checks
// double-spends against the shared store.
package token

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"prever/internal/blind"
)

// Token is a single-use spend credential.
type Token struct {
	Serial string   `json:"serial"` // random 128-bit hex serial
	Period string   `json:"period"` // regulation period, e.g. "2022-W13"
	Sig    *big.Int `json:"sig"`    // authority RSA-FDH signature
}

// message is the signed content: serial bound to period so tokens cannot
// carry over between periods.
func message(serial, period string) []byte {
	return []byte("prever/token/v1|" + serial + "|" + period)
}

// Authority issues token budgets.
type Authority struct {
	signer *blind.Signer
	mu     sync.Mutex
	issued map[string]int // participant+period -> tokens issued
}

// NewAuthority creates an authority with a fresh signing key of the given
// RSA modulus size.
func NewAuthority(bits int, rng io.Reader) (*Authority, error) {
	s, err := blind.NewSigner(bits, rng)
	if err != nil {
		return nil, err
	}
	return &Authority{signer: s, issued: make(map[string]int)}, nil
}

// PublicKey returns the verification key all platforms hold.
func (a *Authority) PublicKey() blind.PublicKey { return a.signer.Public() }

// IssueBudget blind-signs up to budget tokens for a participant in a
// period. The authority sees only blinded serials; it enforces the budget
// by counting issuances per (participant, period). Requests beyond the
// budget are refused — this is exactly how the regulation binds.
func (a *Authority) IssueBudget(participant, period string, blinded []*big.Int, budget int) ([]*big.Int, error) {
	key := participant + "|" + period
	a.mu.Lock()
	already := a.issued[key]
	if already+len(blinded) > budget {
		a.mu.Unlock()
		return nil, fmt.Errorf("token: participant %s exceeds budget %d for %s (has %d, wants %d more)",
			participant, budget, period, already, len(blinded))
	}
	a.issued[key] = already + len(blinded)
	a.mu.Unlock()
	sigs := make([]*big.Int, len(blinded))
	for i, b := range blinded {
		s, err := a.signer.Sign(b)
		if err != nil {
			return nil, err
		}
		sigs[i] = s
	}
	return sigs, nil
}

// Wallet holds a participant's tokens for one period.
type Wallet struct {
	pub    blind.PublicKey
	period string

	mu      sync.Mutex
	serials []string
	blinds  []*blind.Blinded
	tokens  []Token
}

// NewWallet prepares n blinded token requests for a period.
func NewWallet(pub blind.PublicKey, period string, n int, rng io.Reader) (*Wallet, error) {
	if n < 0 {
		return nil, errors.New("token: negative token count")
	}
	w := &Wallet{pub: pub, period: period}
	for i := 0; i < n; i++ {
		var raw [16]byte
		if rng == nil {
			rng = rand.Reader
		}
		if _, err := io.ReadFull(rng, raw[:]); err != nil {
			return nil, err
		}
		serial := hex.EncodeToString(raw[:])
		b, err := blind.Blind(pub, message(serial, period), rng)
		if err != nil {
			return nil, err
		}
		w.serials = append(w.serials, serial)
		w.blinds = append(w.blinds, b)
	}
	return w, nil
}

// BlindedRequests returns the blinded messages to send to the authority.
func (w *Wallet) BlindedRequests() []*big.Int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*big.Int, len(w.blinds))
	for i, b := range w.blinds {
		out[i] = b.Msg
	}
	return out
}

// Finalize unblinds the authority's signatures into usable tokens.
func (w *Wallet) Finalize(sigs []*big.Int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(sigs) != len(w.blinds) {
		return fmt.Errorf("token: got %d signatures for %d requests", len(sigs), len(w.blinds))
	}
	for i, s := range sigs {
		sig, err := w.blinds[i].Unblind(s)
		if err != nil {
			return fmt.Errorf("token: request %d: %w", i, err)
		}
		w.tokens = append(w.tokens, Token{Serial: w.serials[i], Period: w.period, Sig: sig})
	}
	w.blinds = nil
	return nil
}

// Remaining reports how many unspent tokens the wallet holds.
func (w *Wallet) Remaining() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tokens)
}

// Next pops the next unspent token.
func (w *Wallet) Next() (Token, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.tokens) == 0 {
		return Token{}, errors.New("token: wallet empty — budget exhausted")
	}
	t := w.tokens[len(w.tokens)-1]
	w.tokens = w.tokens[:len(w.tokens)-1]
	return t, nil
}

// SpentStore records spent serials; the shared state all platforms consult.
// MarkSpent must be atomic: it returns true if the serial was already
// spent, recording it otherwise.
type SpentStore interface {
	MarkSpent(serial string) (alreadySpent bool, err error)
}

// MemorySpentStore is an in-memory SpentStore for tests and single-process
// setups.
type MemorySpentStore struct {
	mu    sync.Mutex
	spent map[string]bool
}

// NewMemorySpentStore returns an empty store.
func NewMemorySpentStore() *MemorySpentStore {
	return &MemorySpentStore{spent: make(map[string]bool)}
}

// MarkSpent implements SpentStore.
func (m *MemorySpentStore) MarkSpent(serial string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spent[serial] {
		return true, nil
	}
	m.spent[serial] = true
	return false, nil
}

// Spend errors.
var (
	ErrBadSignature = errors.New("token: invalid authority signature")
	ErrWrongPeriod  = errors.New("token: token is for a different period")
	ErrDoubleSpend  = errors.New("token: serial already spent")
)

// Spend verifies a token against the authority's key and the expected
// period, then atomically records it in the spent store. This is what a
// platform calls before accepting a regulated update.
func Spend(pub blind.PublicKey, store SpentStore, tok Token, period string) error {
	if tok.Period != period {
		return ErrWrongPeriod
	}
	if err := blind.Verify(pub, message(tok.Serial, tok.Period), tok.Sig); err != nil {
		return ErrBadSignature
	}
	already, err := store.MarkSpent(tok.Serial)
	if err != nil {
		return err
	}
	if already {
		return ErrDoubleSpend
	}
	return nil
}
