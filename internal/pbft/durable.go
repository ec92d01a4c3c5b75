package pbft

import (
	"encoding/json"
	"fmt"
	"sort"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// Durable-mode journal records. PBFT's safety across crashes needs the
// accepted pre-prepares and prepared certificates (they are what a
// view-change quorum counts on), the view the replica is in (certs are
// view-scoped), and the executed batches (so recovery replays the log
// locally — including the client-seq dedup marks — and only
// state-transfers the delta).
const (
	pbView = "v"  // view switch; Seq carries the new-view NextSeq
	pbPP   = "pp" // accepted pre-prepare
	pbCM   = "cm" // prepared certificate (commit vote sent)
	pbEX   = "ex" // executed batch
)

type pbRecord struct {
	K      string    `json:"k"`
	View   uint64    `json:"v,omitempty"`
	Seq    uint64    `json:"s,omitempty"`
	Digest Digest    `json:"d,omitempty"`
	Batch  []Request `json:"b,omitempty"`
}

type pbSnapshot struct {
	Format   string   `json:"format"`
	View     uint64   `json:"view"`
	ExecSeq  uint64   `json:"execSeq"`
	Stable   uint64   `json:"stable"`
	Executed []string `json:"executed,omitempty"` // executedR dedup keys
	App      []byte   `json:"app,omitempty"`
	// In-flight instances at snapshot time. Snapshotting compacts the
	// journal segments that held these instances' pbPP/pbCM records, so
	// without carrying them here a snapshot would silently destroy
	// durable pre-prepares and prepared certificates for everything
	// above the execution floor — votes this replica already sent.
	Insts []pbInstSnap `json:"insts,omitempty"`
}

type pbInstSnap struct {
	Seq         uint64    `json:"q"`
	Digest      Digest    `json:"d,omitempty"`
	Batch       []Request `json:"b,omitempty"`
	PrePrepared bool      `json:"pp,omitempty"`
	Committed   bool      `json:"cm,omitempty"`
	CertSet     bool      `json:"cs,omitempty"`
	CertView    uint64    `json:"cv,omitempty"`
	CertDigest  Digest    `json:"cd,omitempty"`
	CertBatch   []Request `json:"cb,omitempty"`
}

const pbSnapFormat = "prever/pbft/snap/v2"

// dataFormat is the FORMAT stamp of a durable replica's directory. It
// covers everything the journal and snapshots hold that is not JSON of
// this package's own shapes: the request digest, the mempool's batch
// frame inside Request.Op, and — through DurableOptions.App — the
// application's encodings (chain's transaction and its Merkle leaf). A
// change to any of them bumps it; there is no reading across versions.
// v1 is the unstamped layout: JSON-hashed digests, "pbB1" frames, JSON
// transactions. v2 held chain's peer image as JSON blocks; v3 holds it
// as the block store's own bytes (chain/snapshot.go).
const dataFormat = "prever/pbft/data/v3"

// DefaultSnapshotEvery is the executed-sequence cadence between
// snapshots when DurableOptions leaves SnapshotEvery zero.
const DefaultSnapshotEvery = 256

// DurableOptions configure a crash-durable replica.
type DurableOptions struct {
	// Dir is the replica's private data directory (required).
	Dir string
	// App, when set, is snapshotted alongside the consensus state and
	// restored before the post-snapshot tail is re-executed. It should
	// be the same state machine the Applier mutates.
	App wal.Snapshotter
	// SnapshotEvery is the number of executed sequences between
	// snapshots. Zero means DefaultSnapshotEvery.
	SnapshotEvery uint64
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
}

// NewDurableReplica creates a PBFT replica whose protocol-critical state
// survives crashes: accepted pre-prepares, prepared certificates, view
// switches, and executed batches are journaled to a WAL in d.Dir
// (fsynced before the corresponding vote or client wake-up), with
// periodic snapshots bounding the journal tail. Opening an existing
// directory recovers — snapshot, then record replay (re-executing the
// tail through apply), after which Sync() state-transfers only the
// delta. A directory written in another data format (see dataFormat) is
// refused with an error wrapping wal.ErrFormat and left untouched. If
// the network already knows id as a crashed node, the replica
// reattaches in place of its previous incarnation.
func NewDurableReplica(net *netsim.Network, id string, ids []string, f int, apply Applier, opts Options, d DurableOptions) (*Replica, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("pbft: durable replica %s needs a data dir", id)
	}
	r, err := newReplica(net, id, ids, f, apply, opts)
	if err != nil {
		return nil, err
	}
	if err := wal.CheckFormat(d.Dir, dataFormat); err != nil {
		return nil, fmt.Errorf("pbft: replica %s: %w", id, err)
	}
	log, rec, err := wal.Open(d.Dir, wal.Options{SegmentBytes: d.SegmentBytes})
	if err != nil {
		return nil, err
	}
	if err := r.recoverFromDisk(rec, d.App); err != nil {
		_ = log.Close()
		return nil, err
	}
	// Journaling turns on only after replay; re-journaling recovered
	// records would duplicate the tail on every restart.
	r.log = log
	r.logApp = d.App
	r.snapEvery = d.SnapshotEvery
	if r.snapEvery == 0 {
		r.snapEvery = DefaultSnapshotEvery
	}
	r.lastSnap = r.execSeq

	if err := net.Register(id, r.handle); err != nil {
		if rerr := net.Restart(id, r.handle); rerr != nil {
			_ = log.Close()
			return nil, fmt.Errorf("pbft: %v (and restart failed: %v)", err, rerr)
		}
	}
	return r, nil
}

// recoverFromDisk rebuilds replica state from a WAL recovery: snapshot
// floor first, then the record tail in append order. Runs before the
// replica is registered, so no locking is needed.
func (r *Replica) recoverFromDisk(rec *wal.Recovery, app wal.Snapshotter) error {
	if rec.Snapshot != nil {
		var snap pbSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("pbft: decoding snapshot: %w", err)
		}
		if snap.Format != pbSnapFormat {
			return fmt.Errorf("pbft: unknown snapshot format %q", snap.Format)
		}
		r.view = snap.View
		r.execSeq = snap.ExecSeq
		r.nextSeq = snap.ExecSeq
		r.execFloor = snap.ExecSeq
		r.stable = snap.Stable
		for _, k := range snap.Executed {
			r.executedR[k] = true
		}
		if app != nil && snap.App != nil {
			if err := app.Restore(snap.App); err != nil {
				return fmt.Errorf("pbft: restoring application state: %w", err)
			}
		}
		for _, is := range snap.Insts {
			if is.Seq < r.execSeq {
				continue
			}
			inst := r.instLocked(is.Seq)
			inst.digest = is.Digest
			inst.batch = is.Batch
			inst.prePrepared = is.PrePrepared
			inst.committed = is.Committed
			inst.certSet = is.CertSet
			inst.certView = is.CertView
			inst.certDigest = is.CertDigest
			inst.certBatch = is.CertBatch
			if is.Seq >= r.nextSeq {
				r.nextSeq = is.Seq + 1
			}
		}
	}
	for _, raw := range rec.Records {
		var pr pbRecord
		if err := json.Unmarshal(raw, &pr); err != nil {
			// Passed the CRC but fails to decode: a bug, not disk
			// corruption; refuse to guess.
			return fmt.Errorf("pbft: decoding journal record: %w", err)
		}
		switch pr.K {
		case pbView:
			if pr.View <= r.view {
				break
			}
			// Mirror enterViewLocked: un-executed instances reset, the
			// new-view NextSeq is authoritative.
			r.view = pr.View
			if pr.Seq > 0 {
				r.nextSeq = pr.Seq
			}
			for _, inst := range r.insts {
				if !inst.executed {
					inst.resetVotesLocked()
				}
			}
		case pbPP:
			if pr.Seq < r.execSeq {
				break // already executed per the snapshot floor
			}
			inst := r.instLocked(pr.Seq)
			if inst.executed {
				break
			}
			inst.prePrepared = true
			inst.digest = pr.Digest
			inst.batch = pr.Batch
			if pr.Seq >= r.nextSeq {
				r.nextSeq = pr.Seq + 1
			}
		case pbCM:
			if pr.Seq < r.execSeq {
				break
			}
			inst := r.instLocked(pr.Seq)
			if inst.executed || !inst.prePrepared {
				break
			}
			// The prepared certificate survives (committed suppresses a
			// duplicate commit vote in the recovered view; the sticky cert
			// keeps the batch in view-change messages across later views);
			// quorum counts are volatile and rebuilt by the live protocol.
			// decided stays false: a recovered cert proves this replica's
			// vote, not a counted 2f+1 commit quorum.
			inst.committed = true
			inst.setCertLocked(pr.View)
		case pbEX:
			if pr.Seq != r.execSeq {
				break // exec records are journaled in execution order
			}
			r.reexecuteRecovered(pr)
		}
	}
	if r.vcTarget < r.view {
		r.vcTarget = r.view
	}
	if r.nextSeq < r.execSeq {
		r.nextSeq = r.execSeq
	}
	return nil
}

// reexecuteRecovered re-applies one journaled execution during recovery:
// the same dedup-and-apply path as executeInstanceLocked, minus the
// messaging, journaling, and waiter machinery (there are none yet).
func (r *Replica) reexecuteRecovered(pr pbRecord) {
	inst := r.instLocked(pr.Seq)
	inst.executed = true
	inst.prePrepared = true
	inst.digest = pr.Digest
	inst.batch = pr.Batch
	inst.committed = true
	r.execSeq = pr.Seq + 1
	r.execLog[pr.Seq] = execEntry{Seq: pr.Seq, Digest: pr.Digest, Batch: pr.Batch}
	fresh := pr.Batch[:0:0]
	for _, req := range pr.Batch {
		if r.executedR[reqKey(req)] {
			continue
		}
		r.executedR[reqKey(req)] = true
		fresh = append(fresh, req)
	}
	if r.apply != nil && len(fresh) > 0 {
		r.apply(pr.Seq, fresh)
	}
}

// journalLocked appends one record and fsyncs. Callers hold r.mu. A
// false return means the record is NOT durable and the caller must not
// send the vote it backs; view and exec records tolerate degradation
// (they are reconstructible from the cluster). In-memory replicas
// (r.log == nil) always succeed.
func (r *Replica) journalLocked(rec pbRecord) bool {
	if r.log == nil {
		return true
	}
	tolerant := rec.K == pbEX || rec.K == pbView
	if r.walFailed {
		return tolerant
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("pbft: marshal journal record: %v", err))
	}
	if err := r.log.AppendSync(b); err != nil {
		r.walFailed = true
		return tolerant
	}
	return true
}

// maybeSnapshotLocked captures replica + application state and compacts
// the journal once snapEvery sequences have executed since the last
// snapshot. Called with mu held at the end of executeInstanceLocked; the
// applying==0 && execSeq==seq+1 guard proves the applier is quiescent
// AND no execution beyond seq+1 happened, so the application state
// corresponds exactly to execSeq. mu stays held across the write so no
// concurrent journal append can land in a segment the snapshot is about
// to supersede.
func (r *Replica) maybeSnapshotLocked(seq uint64) {
	if r.log == nil || r.walFailed {
		return
	}
	if r.applying != 0 || r.execSeq != seq+1 {
		return
	}
	if r.execSeq-r.lastSnap < r.snapEvery {
		return
	}
	snap := pbSnapshot{
		Format:  pbSnapFormat,
		View:    r.view,
		ExecSeq: r.execSeq,
		Stable:  r.stable,
	}
	for k := range r.executedR {
		snap.Executed = append(snap.Executed, k)
	}
	for seq, inst := range r.insts {
		if inst.executed || seq < r.execSeq || (!inst.prePrepared && !inst.certSet) {
			continue
		}
		snap.Insts = append(snap.Insts, pbInstSnap{
			Seq:         seq,
			Digest:      inst.digest,
			Batch:       inst.batch,
			PrePrepared: inst.prePrepared,
			Committed:   inst.committed,
			CertSet:     inst.certSet,
			CertView:    inst.certView,
			CertDigest:  inst.certDigest,
			CertBatch:   inst.certBatch,
		})
	}
	sort.Slice(snap.Insts, func(i, j int) bool { return snap.Insts[i].Seq < snap.Insts[j].Seq })
	if r.logApp != nil {
		blob, err := r.logApp.Snapshot()
		if err != nil {
			return // keep journaling; the tail still covers everything
		}
		snap.App = blob
	}
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("pbft: marshal snapshot: %v", err))
	}
	if err := r.log.Snapshot(b); err != nil {
		r.walFailed = true
		return
	}
	r.lastSnap = snap.ExecSeq
}

// CloseStorage syncs and closes the WAL. The replica keeps running in
// memory but goes vote-silent (its votes can no longer be made durable);
// intended for tests tearing down a durable replica before re-opening
// its directory, and for server shutdown.
func (r *Replica) CloseStorage() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.walFailed = true
	return err
}
