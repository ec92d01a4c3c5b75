// Package lockheld is the analyzer fixture for lockheld: blocking
// operations while a mutex is held. Marked lines must be reported;
// everything else must stay silent.
package lockheld

import "sync"

type server struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

// sendHeld blocks on a send with the lock held.
func (s *server) sendHeld() {
	s.mu.Lock()
	s.ch <- 1 // want lockheld
	s.mu.Unlock()
}

// recvDeferHeld: the deferred unlock keeps the lock held across the receive.
func (s *server) recvDeferHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want lockheld
}

// selectHeld: a select without default parks the goroutine under the
// lock. It is reported once, at the select, not again at each
// communication.
func (s *server) selectHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want lockheld
	case v := <-s.ch:
		_ = v
	case s.ch <- 2:
	}
}

// sendChanOperand: a send evaluates its channel operand first, so a
// receive there blocks under the lock before the send does.
func (s *server) sendChanOperand() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pick(
		<-s.ch, // want lockheld
	) <- 1 // want lockheld
}

func (s *server) pick(int) chan int { return s.ch }

// selectReleased: exactly one clause runs and each one unlocks, so the
// send after the select is clean.
func (s *server) selectReleased() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	s.ch <- 2
}

// waitHeld: WaitGroup.Wait is as blocking as a channel.
func (s *server) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want lockheld
	s.mu.Unlock()
}

// loopHeld: the lock is taken before the loop and the send sits inside it.
func (s *server) loopHeld(n int) {
	s.mu.Lock()
	for i := 0; i < n; i++ {
		s.ch <- i // want lockheld
	}
	s.mu.Unlock()
}

// sendReleased unlocks before blocking: the disciplined idiom.
func (s *server) sendReleased() {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	s.ch <- v
}

// branchReleased: every fall-through branch unlocks, so the send is clean.
func (s *server) branchReleased(ok bool) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.ch <- 1
}

// earlyReturn: the terminating branch does not leak its unlock state.
func (s *server) earlyReturn(done bool) {
	s.mu.Lock()
	if done {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.ch <- 1
}

// nonBlocking: select with default never parks.
func (s *server) nonBlocking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

// goroutine: the literal runs on its own stack with no lock held.
func (s *server) goroutine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

// suppressed documents a reviewed exception.
func (s *server) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockheld fixture: reviewed send under lock
	s.ch <- 1
}

// breakHeld: the clause's break leaves the switch with the lock held, so
// the send after it blocks under the lock; the clause's fall-through
// path unlocks.
func (s *server) breakHeld(x int) {
	switch x {
	case 1:
		s.mu.Lock()
		if s.ch != nil {
			break
		}
		s.mu.Unlock()
	}
	s.ch <- 1 // want lockheld
}
