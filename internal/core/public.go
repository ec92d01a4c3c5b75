package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/blind"
	"prever/internal/ledger"
	"prever/internal/pir"
	"prever/internal/token"
)

// PublicPIRManager is the Research Challenge 3 engine: the DATA is public
// (e.g. the list of in-person conference participants) but the UPDATES are
// private (the registration rests on a private credential, e.g. a
// vaccination record), and the constraint is public (a valid credential is
// required).
//
// The privacy story has two halves:
//
//   - Private updates: the credential is a single-use blind-signed token
//     from the issuing authority (a health authority). The manager
//     verifies the authority's signature and burns the serial, but cannot
//     link the credential to its issuance — it learns only "this person
//     holds a valid credential", which is exactly the public constraint.
//   - Private reads: the public data is replicated on two PIR servers, so
//     anyone can check whether a given person is listed without either
//     server learning who was looked up.
type PublicPIRManager struct {
	name      string
	stats     statsRecorder
	issuer    blind.PublicKey
	event     string // the credential period/event binding
	creds     token.SpentStore
	db        *pir.Database
	ledger    *ledger.Ledger
	blockSize int

	mu    sync.Mutex
	index map[string]int // entry key -> PIR block index
	keys  []string       // block index -> entry key (the public directory)
}

// PublicEntry is one public record (an attendee).
type PublicEntry struct {
	Key  string `json:"key"`
	Data string `json:"data"`
}

// NewPublicPIRManager builds the engine. blockSize bounds the serialized
// entry size.
func NewPublicPIRManager(name string, issuer blind.PublicKey, event string, blockSize int) (*PublicPIRManager, error) {
	db, err := pir.NewDatabase(blockSize)
	if err != nil {
		return nil, err
	}
	return &PublicPIRManager{
		name:      name,
		issuer:    issuer,
		event:     event,
		creds:     token.NewMemorySpentStore(),
		db:        db,
		ledger:    ledger.New(),
		blockSize: blockSize,
		index:     make(map[string]int),
	}, nil
}

// Name identifies the engine.
func (m *PublicPIRManager) Name() string { return m.name }

// Stats reports the engine's submission counters.
func (m *PublicPIRManager) Stats() Stats { return m.stats.snapshot() }

// Ledger exposes the integrity layer.
func (m *PublicPIRManager) Ledger() *ledger.Ledger { return m.ledger }

// Size returns the number of public entries.
func (m *PublicPIRManager) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.keys)
}

// Directory returns the public key list (keys are public data; the
// private part of a lookup is WHICH key a reader is interested in).
func (m *PublicPIRManager) Directory() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.keys...)
}

// CredentialedEntry pairs a public entry with the private credential that
// authorizes publishing it — the update unit of the RC3 batch path.
type CredentialedEntry struct {
	Entry PublicEntry
	Cred  token.Token
}

// SubmitCredentialed is SubmitWithCredential over a CredentialedEntry
// (the typed-submit shape the batch path drives).
func (m *PublicPIRManager) SubmitCredentialed(ce CredentialedEntry) (Receipt, error) {
	return m.SubmitWithCredential(ce.Entry, ce.Cred)
}

// CredentialLane is the batch ordering key for credentialed entries:
// per-key ordering so re-registrations of one key apply in order.
func CredentialLane(ce CredentialedEntry) string { return ce.Entry.Key }

// SubmitCredentialedBatch fans a batch out by entry key. Credential
// verification (an RSA signature check plus a spent-store insert) is
// independently verifiable per entry, so it runs genuinely concurrently;
// incorporation into the PIR replicas is a short critical section.
func (m *PublicPIRManager) SubmitCredentialedBatch(ces []CredentialedEntry) ([]Receipt, error) {
	return SubmitGrouped(eachInOrder(m.SubmitCredentialed), CredentialLane, ces)
}

// SubmitWithCredential verifies the private credential against the public
// constraint and, if valid, publishes the entry. The credential is
// single-use: re-registering with the same credential fails.
//
// Concurrency: the credential check runs before the manager lock is
// taken (the spent store is internally synchronized), so lanes verify in
// parallel and only the directory/PIR/ledger writes serialize.
func (m *PublicPIRManager) SubmitWithCredential(entry PublicEntry, cred token.Token) (r Receipt, err error) {
	start := time.Now()
	defer func() { m.stats.record(start, r, err) }()
	if entry.Key == "" {
		return Receipt{}, errors.New("core: empty entry key")
	}
	if err := token.Spend(m.issuer, m.creds, cred, m.event); err != nil {
		return Receipt{
			UpdateID: entry.Key,
			Accepted: false,
			Violated: m.name,
			Reason:   fmt.Sprintf("credential rejected: %v", err),
		}, nil
	}
	payload, err := json.Marshal(entry)
	if err != nil {
		return Receipt{}, err
	}
	if len(payload) > m.blockSize {
		return Receipt{}, fmt.Errorf("core: entry of %d bytes exceeds block size %d", len(payload), m.blockSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, exists := m.index[entry.Key]
	if !exists {
		idx = len(m.keys)
		m.keys = append(m.keys, entry.Key)
		m.index[entry.Key] = idx
	}
	if err := m.db.Update(idx, payload); err != nil {
		return Receipt{}, err
	}
	rcpt, err := m.ledger.Put("entry/"+entry.Key, payload, entry.Key, "")
	if err != nil {
		return Receipt{}, err
	}
	return Receipt{UpdateID: entry.Key, Accepted: true, LedgerSeq: rcpt.Seq}, nil
}

// PrivateLookup fetches the entry for key without revealing WHICH key to
// either PIR server. Returns store.ErrNotFound-like behaviour via an
// error when the key is not listed (the miss itself is computed locally
// from the public directory, so it leaks nothing).
func (m *PublicPIRManager) PrivateLookup(key string) (PublicEntry, error) {
	m.mu.Lock()
	idx, ok := m.index[key]
	m.mu.Unlock()
	if !ok {
		return PublicEntry{}, fmt.Errorf("core: %q is not listed", key)
	}
	return m.PrivateLookupIndex(idx)
}

// PrivateLookupIndex is PrivateLookup by block index (the directory is
// public, so readers can resolve indices locally).
func (m *PublicPIRManager) PrivateLookupIndex(idx int) (PublicEntry, error) {
	raw, err := m.db.PrivateRead(idx, nil)
	if err != nil {
		return PublicEntry{}, err
	}
	// Trim zero padding before decoding.
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end--
	}
	var entry PublicEntry
	if err := json.Unmarshal(raw[:end], &entry); err != nil {
		return PublicEntry{}, fmt.Errorf("core: decode entry: %w", err)
	}
	return entry, nil
}

// AuditReplicas checks the PIR replicas agree (the owner's integrity
// check over the public data).
func (m *PublicPIRManager) AuditReplicas() bool {
	return m.db.Consistent()
}
