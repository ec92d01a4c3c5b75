// Package walorder is the analyzer fixture for walorder: network sends
// reachable after a journal append whose fsync outcome was discarded.
// Marked lines must be reported; everything else must stay silent.
package walorder

import (
	"prever/internal/netsim"
	"prever/internal/wal"
)

type replica struct {
	log *wal.Log
	net *netsim.Network
	id  string
}

// journal is a package-local helper that reaches the WAL and surfaces
// the append outcome; calls that discard its result are events.
func (r *replica) journal(rec []byte) bool {
	return r.log.AppendSync(rec) == nil
}

// vote is a package-local helper that reaches the network.
func (r *replica) vote(payload []byte) {
	r.net.Send(netsim.Message{From: r.id, Type: "vote", Payload: payload})
}

// discardedThenSend: the classic violation — outcome thrown away, then a
// send on the same path.
func (r *replica) discardedThenSend(rec []byte) {
	_ = r.journal(rec)
	r.vote(rec) // want walorder
}

// discardedDirect: a direct wal call as a bare statement, then a direct
// network send.
func (r *replica) discardedDirect(rec []byte) {
	_ = r.log.Append(rec)
	r.net.Send(netsim.Message{From: r.id, To: "peer", Type: "vote", Payload: rec}) // want walorder
}

// checkedThenSend: the correct shape — the outcome gates the send.
func (r *replica) checkedThenSend(rec []byte) {
	if !r.journal(rec) {
		return
	}
	r.vote(rec)
}

// checkedVar: binding the outcome to a variable counts as checked even
// before the branch; only all-blank discards are events.
func (r *replica) checkedVar(rec []byte) {
	ok := r.journal(rec)
	r.vote(rec)
	_ = ok
}

// branchMerge: an event on one arm keeps the send after the merge
// reachable on that path.
func (r *replica) branchMerge(rec []byte, fast bool) {
	if fast {
		_ = r.journal(rec)
	} else if !r.journal(rec) {
		return
	}
	r.vote(rec) // want walorder
}

// terminatedBranch: the discarding arm returns, so the send below only
// follows the checked arm.
func (r *replica) terminatedBranch(rec []byte, fast bool) {
	if fast {
		_ = r.journal(rec)
		return
	}
	if !r.journal(rec) {
		return
	}
	r.vote(rec)
}

// goroutineFrame: a spawned goroutine is a new frame — its send is not
// sequenced after this frame's event (the literal body is also scanned
// on its own, starting event-free).
func (r *replica) goroutineFrame(rec []byte) {
	_ = r.journal(rec)
	go func() {
		r.vote(rec)
	}()
}

// deferredSend: a send deferred while an event is pending runs at
// return, still unconfirmed.
func (r *replica) deferredSend(rec []byte) {
	_ = r.journal(rec)
	defer r.vote(rec) // want walorder
}

// loopBody: event and send inside the same iteration.
func (r *replica) loopBody(recs [][]byte) {
	for _, rec := range recs {
		_ = r.journal(rec)
		r.vote(rec) // want walorder
	}
}

// snapshotDiscarded: Snapshot is journal-like too.
func (r *replica) snapshotDiscarded(img []byte) {
	_ = r.log.Snapshot(img)
	r.vote(img) // want walorder
}

// ignored: a reviewed site stays silent under a directive.
func (r *replica) ignored(rec []byte) {
	_ = r.journal(rec)
	//lint:ignore walorder chosen cluster-wide already; peers re-serve the value on learn-sync
	r.vote(rec)
}

// voted is a send-like helper with a value to put on a channel.
func (r *replica) voted(payload []byte) bool {
	r.vote(payload)
	return true
}

// selectComm: a select's communication is evaluated like any other
// statement, after the pending event.
func (r *replica) selectComm(rec []byte, out chan bool) {
	_ = r.journal(rec)
	select {
	case out <- r.voted(rec): // want walorder
	default:
	}
}

// selectAllLeave: a select runs exactly one clause, and each one returns,
// so the send after it is unreachable. A merge that kept the events from
// before the select would report it.
func (r *replica) selectAllLeave(rec []byte, stop chan struct{}) {
	_ = r.journal(rec)
	select {
	case <-stop:
		return
	default:
		return
	}
	r.vote(rec)
}

// breakPending: a clause that discards the outcome and breaks leaves the
// switch with the event pending; its other path returns.
func (r *replica) breakPending(rec []byte, x int) {
	switch x {
	case 1:
		_ = r.journal(rec)
		if len(rec) > 0 {
			break
		}
		return
	}
	r.vote(rec) // want walorder
}
