package core

import (
	"encoding/json"
	"fmt"
	"math/big"

	"prever/internal/commit"
)

// zkBoundSnapshot is the durable image of a ZKBoundManager: the running
// commitment per group. The ledger is NOT included — it has its own
// digest-audited persistence (ledger.SaveFile) and is anchored by every
// receipt, so one blob holding both would duplicate the source of truth.
type zkBoundSnapshot struct {
	Format  string            `json:"format"`
	Running map[string][]byte `json:"running,omitempty"` // group -> element big-endian bytes
}

// zkBoundSnapFormat names the encoding of the running commitments: v2
// stores each as its group element's one encoding in [1, Q]
// (group.Contains). v1 stored quadratic residues in [1, P), which this
// version refuses rather than reinterprets.
const zkBoundSnapFormat = "prever/core/zkbound/v2"

// Snapshot encodes the per-group running commitments (wal.Snapshotter).
func (m *ZKBoundManager) Snapshot() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap := zkBoundSnapshot{Format: zkBoundSnapFormat, Running: make(map[string][]byte, len(m.running))}
	for group, c := range m.running {
		snap.Running[group] = c.Bytes()
	}
	return json.Marshal(snap)
}

// Restore replaces the running commitments with a snapshot's. Every
// element is re-checked for group membership before any state changes —
// the other encoding P − c of a commitment fails it too — so a corrupt,
// tampered or older-format snapshot is rejected whole.
func (m *ZKBoundManager) Restore(data []byte) error {
	var snap zkBoundSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("core: decoding zkbound snapshot: %w", err)
	}
	if snap.Format != zkBoundSnapFormat {
		return fmt.Errorf("core: zkbound snapshot format %q, want %q", snap.Format, zkBoundSnapFormat)
	}
	running := make(map[string]commit.Commitment, len(snap.Running))
	for group, raw := range snap.Running {
		c := commit.Commitment{C: new(big.Int).SetBytes(raw)}
		if !m.params.Group.Contains(c.C) {
			return fmt.Errorf("core: zkbound snapshot: group %q commitment outside the group", group)
		}
		running[group] = c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running = running
	return nil
}
