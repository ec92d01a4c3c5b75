package pbft

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// Durable-mode journal records. PBFT's safety across crashes needs the
// accepted pre-prepares and prepared certificates (they are what a
// view-change quorum counts on), the view the replica is in (certs are
// view-scoped), and the executed instances (so recovery replays the log
// locally — including the client-seq dedup marks — and only
// state-transfers the delta).
const (
	pbView = "v"  // view switch; Seq carries the new-view NextSeq
	pbPP   = "pp" // accepted pre-prepare
	pbCM   = "cm" // prepared certificate (commit vote sent)
	pbEX   = "ex" // executed instance
)

type pbRecord struct {
	K      string   `json:"k"`
	View   uint64   `json:"v,omitempty"`
	Seq    uint64   `json:"s,omitempty"`
	Digest Digest   `json:"d,omitempty"`
	Req    *Request `json:"r,omitempty"`
}

// pbSnapshot is a durable replica's snapshot: its state image, which
// state transfer serves (embedded, so its fields stay top-level in the
// JSON and the image decodes from the snapshot alone), and what only
// this replica holds.
type pbSnapshot struct {
	Format string `json:"format"`
	View   uint64 `json:"view"`
	stateImage
	Stable uint64 `json:"stable"`
	// In-flight instances at snapshot time. Snapshotting compacts the
	// journal segments that held these instances' pbPP/pbCM records, so
	// without carrying them here a snapshot would silently destroy
	// durable pre-prepares and prepared certificates for everything
	// above the execution floor — votes this replica already sent.
	Insts []pbInstSnap `json:"insts,omitempty"`
}

type pbInstSnap struct {
	Seq         uint64         `json:"q"`
	Digest      Digest         `json:"d,omitempty"`
	Req         *Request       `json:"r,omitempty"`
	PrePrepared bool           `json:"pp,omitempty"`
	Committed   bool           `json:"cm,omitempty"`
	Cert        *prePrepareMsg `json:"c,omitempty"`
}

const pbSnapFormat = "prever/pbft/snap/v3"

// dataFormat is the FORMAT stamp of a durable replica's directory. It
// covers everything the journal and snapshots hold that is not JSON of
// this package's own shapes: the request digest, the mempool's batch
// frame inside Request.Op, and — through DurableOptions.App — the
// application's encodings (chain's transaction and its Merkle leaf). A
// change to any of them bumps it; there is no reading across versions.
// v1 is the unstamped layout: JSON-hashed digests, "pbB1" frames, JSON
// transactions. v2 held chain's peer image as JSON blocks; v3 holds it
// as the block store's own bytes (chain/snapshot.go). v4 journals and
// snapshots an instance's one request where v3 held a request list.
const dataFormat = "prever/pbft/data/v4"

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
// switches, and executed instances are journaled to a WAL in d.Dir
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
	r.logApp = d.App
	r.snapEvery = d.SnapshotEvery
	if r.snapEvery == 0 {
		r.snapEvery = DefaultSnapshotEvery
	}
	if err := r.recoverFromDisk(rec); err != nil {
		_ = log.Close()
		return nil, err
	}
	// Journaling turns on only after replay; re-journaling recovered
	// records would duplicate the tail on every restart.
	r.log = log

	if err := net.Register(id, r.handle); err != nil {
		if rerr := net.Restart(id, r.handle, nil); rerr != nil {
			_ = log.Close()
			return nil, fmt.Errorf("pbft: %v (and restart failed: %v)", err, rerr)
		}
	}
	return r, nil
}

// recoverFromDisk rebuilds replica state from a WAL recovery: snapshot
// floor first, then the record tail in append order. It runs before the
// replica is registered, so before its goroutine starts, and publishes
// the view and execution point it recovers.
func (r *Replica) recoverFromDisk(rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		var snap pbSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("pbft: decoding snapshot: %w", err)
		}
		if snap.Format != pbSnapFormat {
			return fmt.Errorf("pbft: unknown snapshot format %q", snap.Format)
		}
		if err := r.install(&snap.stateImage); err != nil {
			return fmt.Errorf("pbft: restoring application state: %w", err)
		}
		r.view = snap.View
		r.stable = snap.Stable
		for _, is := range snap.Insts {
			if is.Seq < r.execSeq {
				continue
			}
			inst := r.inst(is.Seq)
			inst.digest = is.Digest
			inst.req = is.Req
			inst.prePrepared = is.PrePrepared
			inst.committed = is.Committed
			inst.cert = is.Cert
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
			// Mirror enterView: un-executed instances reset, the
			// new-view NextSeq is authoritative.
			r.view = pr.View
			if pr.Seq > 0 {
				r.nextSeq = pr.Seq
			}
			for _, inst := range r.insts {
				if !inst.executed {
					inst.resetVotes()
				}
			}
		case pbPP:
			if pr.Seq < r.execSeq {
				break // already executed per the snapshot floor
			}
			inst := r.inst(pr.Seq)
			if inst.executed {
				break
			}
			inst.prePrepared = true
			inst.digest = pr.Digest
			inst.req = pr.Req
			if pr.Seq >= r.nextSeq {
				r.nextSeq = pr.Seq + 1
			}
		case pbCM:
			if pr.Seq < r.execSeq {
				break
			}
			inst := r.inst(pr.Seq)
			if inst.executed || !inst.prePrepared {
				break
			}
			// The prepared certificate survives (committed suppresses a
			// duplicate commit vote in the recovered view; the sticky cert
			// keeps the instance in view-change messages across later views);
			// quorum counts are volatile and rebuilt by the live protocol.
			// decided stays false: a recovered cert proves this replica's
			// vote, not a counted 2f+1 commit quorum.
			inst.committed = true
			inst.setCert(pr.Seq, pr.View)
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
	r.publish()
	return nil
}

// reexecuteRecovered re-applies one journaled execution during recovery:
// the same dedup-and-apply path as executeInstance, minus the
// messaging, journaling, and waiter machinery (there are none yet).
func (r *Replica) reexecuteRecovered(pr pbRecord) {
	inst := r.inst(pr.Seq)
	inst.executed = true
	inst.prePrepared = true
	inst.digest = pr.Digest
	inst.req = pr.Req
	inst.committed = true
	r.execSeq = pr.Seq + 1
	r.execLog[pr.Seq] = prePrepareMsg{Seq: pr.Seq, Digest: pr.Digest, Req: pr.Req}
	if req := pr.Req; req != nil && !r.executedR[req.key()] {
		r.executedR[req.key()] = true
		if r.apply != nil {
			r.apply(pr.Seq, *req)
		}
	}
}

// journal appends one record and fsyncs. A false return means the
// record is NOT durable and the caller must not send the vote it backs;
// view and exec records tolerate degradation (they are reconstructible
// from the cluster). In-memory replicas (r.log == nil) always succeed.
func (r *Replica) journal(rec pbRecord) bool {
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

// maybeSnapshot snapshots at every multiple of snapEvery, so all
// honest replicas' snapshots at one sequence hold the same image. It is
// called in executeInstance as soon as the apply returns, so the
// snapshot is on disk before the checkpoint vote. The application state
// is then exactly the state at execSeq: executions run one at a time,
// on the replica's goroutine.
func (r *Replica) maybeSnapshot() {
	if r.log == nil || r.walFailed || r.execSeq%r.snapEvery != 0 {
		return
	}
	img := stateImage{ExecSeq: r.execSeq}
	for k := range r.executedR {
		img.Executed = append(img.Executed, k.String())
	}
	sort.Strings(img.Executed)
	if r.logApp != nil {
		blob, err := r.logApp.Snapshot()
		if err != nil {
			return // keep journaling; the tail still covers everything
		}
		img.App = blob
	}
	r.writeSnapshot(img)
}

// writeSnapshot stores img as this replica's snapshot, together
// with its view, stable checkpoint and in-flight instances, and compacts
// the journal. It runs on the replica's goroutine, the only one that
// appends, so no journal append can land in a segment the snapshot
// supersedes.
func (r *Replica) writeSnapshot(img stateImage) {
	if r.log == nil || r.walFailed {
		return
	}
	snap := pbSnapshot{Format: pbSnapFormat, View: r.view, stateImage: img, Stable: r.stable}
	for seq, inst := range r.insts {
		if inst.executed || seq < r.execSeq || (!inst.prePrepared && inst.cert == nil) {
			continue
		}
		snap.Insts = append(snap.Insts, pbInstSnap{
			Seq:         seq,
			Digest:      inst.digest,
			Req:         inst.req,
			PrePrepared: inst.prePrepared,
			Committed:   inst.committed,
			Cert:        inst.cert,
		})
	}
	sort.Slice(snap.Insts, func(i, j int) bool { return snap.Insts[i].Seq < snap.Insts[j].Seq })
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("pbft: marshal snapshot: %v", err))
	}
	if err := r.log.Snapshot(b); err != nil {
		r.walFailed = true
	}
}

// install makes img this replica's state: the application restored
// from its blob, the dedup set replaced by its keys, execution moved to
// its sequence and everything below that dropped. Recovery installs the
// image in the replica's own snapshot, adoption one f+1 peers offered.
// On error nothing has changed.
func (r *Replica) install(img *stateImage) error {
	executed := make(map[reqKey]bool, len(img.Executed))
	for _, s := range img.Executed {
		k, err := parseReqKey(s)
		if err != nil {
			return err
		}
		executed[k] = true
	}
	if r.logApp != nil {
		if err := r.logApp.Restore(img.App); err != nil {
			return err
		}
	}
	r.execSeq = img.ExecSeq
	if r.nextSeq < img.ExecSeq {
		r.nextSeq = img.ExecSeq
	}
	r.executedR = executed
	r.execLog = make(map[uint64]prePrepareMsg)
	for seq := range r.insts {
		if seq < r.execSeq {
			delete(r.insts, seq)
		}
	}
	for seq := range r.stateVotes {
		if seq < r.execSeq {
			delete(r.stateVotes, seq)
		}
	}
	for d, vt := range r.vcTimers {
		if r.executedR[vt.req.key()] {
			vt.tmr.Stop()
			delete(r.vcTimers, d)
		}
	}
	r.imgVotes = nil
	return nil
}

// storedImage is the image in log's newest snapshot, nil if there is
// none above have.
func storedImage(log *wal.Log, have uint64) *stateImage {
	b, err := log.ReadSnapshot()
	var img stateImage
	if err != nil || b == nil || json.Unmarshal(b, &img) != nil || img.ExecSeq <= have {
		return nil
	}
	return &img
}

// CloseStorage syncs and closes the WAL. The replica keeps running in
// memory but goes vote-silent: its next journal append fails, which
// sets walFailed on its goroutine, and its votes can no longer be made
// durable. Intended for tests tearing down a durable replica before
// re-opening its directory, and for server shutdown.
func (r *Replica) CloseStorage() error {
	if r.log == nil {
		return nil
	}
	return r.log.Close()
}

// String is the key as a snapshot holds it: "client/seq", seq in decimal.
func (k reqKey) String() string { return k.client + "/" + strconv.FormatUint(k.seq, 10) }

// parseReqKey reads a key String wrote. A client name may hold '/', so
// the sequence number is what follows the last one.
func parseReqKey(s string) (reqKey, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return reqKey{}, fmt.Errorf("pbft: executed-request key %q has no sequence number", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return reqKey{}, fmt.Errorf("pbft: executed-request key %q: %w", s, err)
	}
	return reqKey{s[:i], seq}, nil
}
