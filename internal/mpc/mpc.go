// Package mpc implements the secure multi-party computation substrate for
// PReVer's decentralized federated path (Research Challenge 2): mutually
// distrustful data managers collectively verify a regulation over their
// private per-platform values without revealing them.
//
// Two protocols are provided:
//
//   - Secure sum (SumParty / RunSum): each party additively shares its
//     private input among all parties over the network; only the aggregate
//     is revealed. Against honest-but-curious parties, any coalition of
//     fewer than n-1 parties learns nothing beyond the total.
//
//   - Bounded check (CheckBound / CheckFloor with a Helper): decides
//     total <= bound (or total >= bound) WITHOUT revealing the total, using
//     a semi-trusted helper holding a Paillier key. Parties encrypt inputs
//     under the helper's key; the aggregator homomorphically computes
//     Enc(k·(total - bound)) for a random large mask k, re-randomises it,
//     and the helper reports only the sign. Leakage: the helper learns
//     sign(total - bound) and the masked magnitude k·|total - bound|; the
//     aggregator learns only the boolean. This is the classic
//     multiplicative-masking comparison; the paper's own discussion accepts
//     a designated authority in the loop (Separ's trusted third party) and
//     this weakens it to "helper that never sees raw values".
package mpc

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"prever/internal/he"
	"prever/internal/netsim"
	"prever/internal/shamir"
)

// Message types.
const (
	msgStart   = "mpc/start"
	msgShare   = "mpc/share"
	msgPartial = "mpc/partial"
)

type startMsg struct {
	Session string   `json:"session"`
	Parties []string `json:"parties"`
}

type shareMsg struct {
	Session string `json:"session"`
	Value   string `json:"value"` // big.Int as decimal text
}

type partialMsg struct {
	Session string `json:"session"`
	Value   string `json:"value"`
}

// session tracks one secure-sum execution at one party.
type session struct {
	parties  []string
	shares   map[string]*big.Int // sender -> share received
	partials map[string]*big.Int // sender -> partial sum
	sentOwn  bool
	total    *big.Int
	done     chan struct{}
}

// SumParty is one participant in secure-sum protocols.
type SumParty struct {
	id    string
	net   *netsim.Network
	field *big.Int

	mu       sync.Mutex
	inputs   map[string]*big.Int
	sessions map[string]*session
}

// NewSumParty creates and registers a party. field nil means the default
// 256-bit field.
func NewSumParty(net *netsim.Network, id string, field *big.Int) (*SumParty, error) {
	if field == nil {
		field = shamir.DefaultField
	}
	p := &SumParty{
		id:       id,
		net:      net,
		field:    field,
		inputs:   make(map[string]*big.Int),
		sessions: make(map[string]*session),
	}
	if err := net.Register(id, p.handle); err != nil {
		return nil, err
	}
	return p, nil
}

// ID returns the party id.
func (p *SumParty) ID() string { return p.id }

// SetInput stages this party's private input for a session. Must be called
// on every party before the initiator runs the session.
func (p *SumParty) SetInput(sessionID string, v *big.Int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inputs[sessionID] = new(big.Int).Set(v)
}

// RunSum initiates a secure sum over the given parties (which must include
// this party) and blocks until the total is known or the timeout passes.
// The result is the sum of all staged inputs, signed-decoded from the
// field.
func (p *SumParty) RunSum(sessionID string, parties []string, timeout time.Duration) (*big.Int, error) {
	found := false
	for _, id := range parties {
		if id == p.id {
			found = true
		}
	}
	if !found {
		return nil, errors.New("mpc: initiator must be in the party list")
	}
	s := p.ensureSession(sessionID, parties)
	start := startMsg{Session: sessionID, Parties: parties}
	body, _ := json.Marshal(start)
	for _, id := range parties {
		if id == p.id {
			continue
		}
		p.net.Send(netsim.Message{From: p.id, To: id, Type: msgStart, Payload: body})
	}
	p.onStart(start) // run own share distribution
	tmr := time.NewTimer(timeout)
	defer tmr.Stop()
	select {
	case <-s.done:
		p.mu.Lock()
		defer p.mu.Unlock()
		return shamir.DecodeSigned(s.total, p.field), nil
	case <-tmr.C:
		return nil, fmt.Errorf("mpc: session %s timed out", sessionID)
	}
}

// Result returns the total from a completed session (available on every
// participant, not just the initiator).
func (p *SumParty) Result(sessionID string) (*big.Int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[sessionID]
	if !ok || s.total == nil {
		return nil, false
	}
	return shamir.DecodeSigned(s.total, p.field), true
}

func (p *SumParty) ensureSession(sessionID string, parties []string) *session {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[sessionID]
	if !ok {
		s = &session{
			parties:  append([]string(nil), parties...),
			shares:   make(map[string]*big.Int),
			partials: make(map[string]*big.Int),
			done:     make(chan struct{}),
		}
		p.sessions[sessionID] = s
	} else if s.parties == nil {
		s.parties = append([]string(nil), parties...)
	}
	return s
}

func (p *SumParty) handle(m netsim.Message) {
	switch m.Type {
	case msgStart:
		var s startMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		p.onStart(s)
	case msgShare:
		var s shareMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		v, ok := new(big.Int).SetString(s.Value, 10)
		if !ok {
			return
		}
		p.onShare(m.From, s.Session, v)
	case msgPartial:
		var s partialMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		v, ok := new(big.Int).SetString(s.Value, 10)
		if !ok {
			return
		}
		p.onPartial(m.From, s.Session, v)
	}
}

// onStart splits this party's input and distributes shares.
func (p *SumParty) onStart(s startMsg) {
	sess := p.ensureSession(s.Session, s.Parties)
	p.mu.Lock()
	if sess.sentOwn {
		p.mu.Unlock()
		return
	}
	sess.sentOwn = true
	input, ok := p.inputs[s.Session]
	if !ok {
		input = new(big.Int) // parties with no staged input contribute 0
	}
	shares, err := shamir.SplitAdditive(input, len(sess.parties), p.field, nil)
	if err != nil {
		p.mu.Unlock()
		return
	}
	parties := sess.parties
	p.mu.Unlock()
	for i, id := range parties {
		if id == p.id {
			p.onShare(p.id, s.Session, shares[i])
			continue
		}
		body, _ := json.Marshal(shareMsg{Session: s.Session, Value: shares[i].String()})
		p.net.Send(netsim.Message{From: p.id, To: id, Type: msgShare, Payload: body})
	}
}

// onShare accumulates one share; when shares from every party have
// arrived, the partial sum is broadcast.
func (p *SumParty) onShare(from, sessionID string, v *big.Int) {
	p.mu.Lock()
	sess, ok := p.sessions[sessionID]
	if !ok {
		// Share can arrive before start on a fast link; create a shell
		// session (parties filled in by start).
		sess = &session{
			shares:   make(map[string]*big.Int),
			partials: make(map[string]*big.Int),
			done:     make(chan struct{}),
		}
		p.sessions[sessionID] = sess
	}
	sess.shares[from] = v
	ready := sess.parties != nil && len(sess.shares) == len(sess.parties)
	if !ready {
		p.mu.Unlock()
		return
	}
	partial := new(big.Int)
	for _, sh := range sess.shares {
		partial.Add(partial, sh)
	}
	partial.Mod(partial, p.field)
	sess.partials[p.id] = partial
	parties := sess.parties
	p.mu.Unlock()
	body, _ := json.Marshal(partialMsg{Session: sessionID, Value: partial.String()})
	for _, id := range parties {
		if id == p.id {
			continue
		}
		p.net.Send(netsim.Message{From: p.id, To: id, Type: msgPartial, Payload: body})
	}
	p.maybeFinish(sessionID)
}

func (p *SumParty) onPartial(from, sessionID string, v *big.Int) {
	p.mu.Lock()
	sess, ok := p.sessions[sessionID]
	if !ok {
		sess = &session{
			shares:   make(map[string]*big.Int),
			partials: make(map[string]*big.Int),
			done:     make(chan struct{}),
		}
		p.sessions[sessionID] = sess
	}
	sess.partials[from] = v
	p.mu.Unlock()
	p.maybeFinish(sessionID)
}

func (p *SumParty) maybeFinish(sessionID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, ok := p.sessions[sessionID]
	if !ok || sess.total != nil || sess.parties == nil {
		return
	}
	if len(sess.partials) < len(sess.parties) {
		return
	}
	total := new(big.Int)
	for _, v := range sess.partials {
		total.Add(total, v)
	}
	total.Mod(total, p.field)
	sess.total = total
	close(sess.done)
}

// --- bounded check with a semi-trusted helper ---

// Helper holds the Paillier key for masked comparisons. It never sees raw
// inputs, only the masked difference.
type Helper struct {
	sk *he.PrivateKey
}

// NewHelper generates a helper with a Paillier key of the given size.
func NewHelper(bits int) (*Helper, error) {
	sk, err := he.GenerateKey(bits, nil)
	if err != nil {
		return nil, err
	}
	return &Helper{sk: sk}, nil
}

// PublicKey returns the encryption key parties use.
func (h *Helper) PublicKey() *he.PublicKey { return &h.sk.PublicKey }

// SignOfMasked decrypts a masked difference and returns only its sign
// (-1, 0, +1). This is the helper's entire view of the computation.
func (h *Helper) SignOfMasked(ct *he.Ciphertext) (int, error) {
	m, err := h.sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return m.Sign(), nil
}

// SignOracle abstracts the helper for the aggregator (lets tests inject a
// cheating helper).
type SignOracle interface {
	SignOfMasked(ct *he.Ciphertext) (int, error)
}

// EncryptInput is the party-side step of the bounded check: encrypt a
// private value under the helper's key.
func EncryptInput(pk *he.PublicKey, v int64) (*he.Ciphertext, error) {
	return pk.EncryptInt(v, nil)
}

// maskBits sizes the random multiplicative mask (statistical hiding of the
// difference's magnitude from the helper).
const maskBits = 40

// CheckBound is the aggregator-side step: given the parties' encrypted
// inputs, decide whether their sum is <= bound without learning the sum.
// The helper is handed one ciphertext, a fresh encryption of
// k·(total - bound), and learns its sign and k·|total - bound|; the
// aggregator learns the boolean. Returns true iff sum(inputs) <= bound; no
// inputs sum to zero.
func CheckBound(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (bool, error) {
	sign, err := signOfDifference(pk, oracle, inputs, bound)
	return err == nil && sign <= 0, err
}

// CheckFloor is CheckBound for a lower bound: true iff sum(inputs) >=
// bound. Same protocol, same leakage; only the accepted sign differs.
func CheckFloor(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (bool, error) {
	sign, err := signOfDifference(pk, oracle, inputs, bound)
	return err == nil && sign >= 0, err
}

// signOfDifference returns sign(sum(inputs) - bound) as the oracle reports
// it. Forming total - bound rather than bound - total keeps negation out
// of the protocol: one AddPlain of -bound, no ciphertext inverted.
func signOfDifference(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (int, error) {
	// -bound as a big.Int: math.MinInt64 has no int64 negation.
	negBound := new(big.Int).Neg(big.NewInt(bound))
	if len(inputs) == 0 {
		return negBound.Sign(), nil
	}
	total := pk.EncryptZeroDeterministic()
	for _, ct := range inputs {
		if ct == nil {
			return 0, errors.New("mpc: nil encrypted input")
		}
		total = pk.Add(total, ct)
	}
	d, err := pk.AddPlain(total, negBound)
	if err != nil {
		return 0, err
	}
	// Mask: k·d for random k in [1, 2^maskBits].
	k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), maskBits))
	if err != nil {
		return 0, err
	}
	k.Add(k, big.NewInt(1))
	masked, err := pk.MulPlain(d, k)
	if err != nil {
		return 0, err
	}
	// Rerandomize: d^k carries the inputs' randomness raised to k, and the
	// key holder can extract a ciphertext's randomness. A fresh r^n leaves
	// the helper nothing to correlate with earlier ciphertexts or to solve
	// for k.
	masked, err = pk.Rerandomize(masked, nil)
	if err != nil {
		return 0, err
	}
	return oracle.SignOfMasked(masked)
}
