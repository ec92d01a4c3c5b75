// Package lockorder is the analyzer fixture for lockorder: mutex
// classes acquired in conflicting orders. The hierarchy mirrors the real
// one — a pool mutex above per-replica mutexes — plus a deliberate
// reversal, a same-class double acquisition, and the unlock-relock
// handoff that must stay silent. An account-over-replica order is
// reversed too, to pin how a select is walked. Marked lines must be
// reported.
package lockorder

import "sync"

type pool struct {
	mu   sync.Mutex
	reps []*replica
}

type replica struct {
	mu   sync.Mutex
	seq  uint64
	pool *pool
}

type account struct {
	mu  sync.Mutex
	bal int
}

// poolThenReplica establishes pool.mu -> replica.mu. On its own this is
// the sanctioned order; the reversal below makes it a cycle, so this
// acquisition site is reported too.
func (p *pool) poolThenReplica() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.reps {
		r.mu.Lock() // want lockorder
		r.seq++
		r.mu.Unlock()
	}
}

// replicaThenPool closes the cycle: replica.mu -> pool.mu reverses the
// order above.
func (r *replica) replicaThenPool() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pool.mu.Lock() // want lockorder
	r.pool.mu.Unlock()
}

// transfer takes two instances of one class with no global order: the
// classic two-account deadlock, reported as a same-class self-edge.
func transfer(a, b *replica) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want lockorder
	defer b.mu.Unlock()
	a.seq, b.seq = b.seq, a.seq
}

// lockedHelper's summary acquires replica.mu.
func (r *replica) lockedHelper() {
	r.mu.Lock()
	r.seq++
	r.mu.Unlock()
}

// callUnderPool reaches replica.mu through the helper's summary while
// holding pool.mu: the same pool.mu -> replica.mu edge as
// poolThenReplica, whose earlier site carries the report.
func (p *pool) callUnderPool() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.reps {
		r.lockedHelper()
	}
}

// handoffLocked is the unlock-relock idiom: the caller-held lock is
// released around a blocking step and retaken. The relock is not a
// nested acquisition, so it stays out of the summary.
func (r *replica) handoffLocked() {
	r.mu.Unlock()
	r.seq++ // stand-in for the blocking step
	r.mu.Lock()
}

// callHandoff holds replica.mu across the handoff helper: silent.
func (r *replica) callHandoff() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handoffLocked()
}

// goroutineFrame: the literal runs on its own frame, so its pool lock is
// not "under" the replica lock.
func (r *replica) goroutineFrame() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.pool.mu.Lock()
		r.pool.mu.Unlock()
	}()
}

// auditAccounts takes two instances of account.mu in a reviewed fixed
// order: the self-edge finding is suppressed by the directive.
func auditAccounts(a, b *account) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:ignore lockorder instances are always locked in creation order; no reverse path exists
	b.mu.Lock()
	defer b.mu.Unlock()
	return a.bal + b.bal
}

// next's summary acquires replica.mu.
func (r *replica) next() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq
}

// accountThenReplica: a select's communication is evaluated with the
// account lock held, so the helper's acquisition nests under it.
func (a *account) accountThenReplica(r *replica, c chan uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case c <- r.next(): // want lockorder
	default:
	}
}

// selectReleased: a select runs exactly one clause and every clause here
// releases replica.mu, so the account lock below is not taken under it.
// A merge that kept the locks held before the select would record
// replica.mu -> account.mu at this line instead of at the reversal below.
func (r *replica) selectReleased(a *account, c chan int) {
	r.mu.Lock()
	select {
	case <-c:
		r.mu.Unlock()
	default:
		r.mu.Unlock()
	}
	a.mu.Lock()
	a.bal++
	a.mu.Unlock()
}

// replicaThenAccount reverses the account.mu -> replica.mu order.
func (r *replica) replicaThenAccount(a *account) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a.mu.Lock() // want lockorder
	a.bal--
	a.mu.Unlock()
}

// hub and spoke are taken hub → spoke only on a select clause's break
// path, which leaves the select holding hub.mu; spokeThenHub takes them
// the other way round.
type hub struct{ mu sync.Mutex }

type spoke struct{ mu sync.Mutex }

func hubBreakThenSpoke(h *hub, s *spoke, c chan int) {
	select {
	case v := <-c:
		h.mu.Lock()
		if v > 0 {
			break
		}
		h.mu.Unlock()
		return
	}
	s.mu.Lock() // want lockorder
	s.mu.Unlock()
	h.mu.Unlock()
}

func spokeThenHub(h *hub, s *spoke) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h.mu.Lock() // want lockorder
	h.mu.Unlock()
}
