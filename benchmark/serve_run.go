package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prever/internal/api"
	"prever/internal/workload"
)

// setupRepeats is how many times a served workload sets up (boot, health,
// preload); setup_s is the midmean, which of three is the middle one. A boot
// is a few milliseconds, a preload half a second.
func setupRepeats(spec serveSpec) int {
	if spec.preload > 0 {
		return 3
	}
	return 9
}

// servedRun is a measured run of a served workload, the server still up.
type servedRun struct {
	st      *stack
	l       *load
	out     *served
	dataDir string
}

// setUps sets the workload up setupRepeats times beside a yardstick and
// leaves the last server running: its stack, load and data directory, how
// long each set-up took, and the host's slowdown over all of them.
func (cfg runCfg) setUps(spec serveSpec) (st *stack, l *load, dir string, setups []float64, slow float64, err error) {
	yard := startYardstick()
	defer func() {
		yard.halt()
		slow = yard.slowdown(0, time.Hour)
	}()
	for i := 0; i < setupRepeats(spec); i++ {
		if st != nil {
			// A server stopped this soon may not have installed its
			// signal handler yet and then dies of the SIGTERM instead of
			// exiting cleanly; either way it is gone, which is all set-up
			// needs.
			_ = st.stop()
		}
		if dir, err = cfg.freshDataDir(spec, fmt.Sprint(i)); err != nil {
			return nil, nil, "", nil, 0, err
		}
		var setup time.Duration
		if st, l, setup, err = cfg.setUp(spec, dir); err != nil {
			return nil, nil, "", nil, 0, err
		}
		setups = append(setups, setup.Seconds())
	}
	return st, l, dir, setups, 0, nil
}

// measureServe sets the workload up setupRepeats times, offers the load
// against the last server, and records every metric that can be read from
// outside the program: the generator's own samples, /stats deltas, /proc
// and the data directory. It runs the client-visible checks, and for a
// durable workload the SIGKILL, restart and re-check.
func measureServe(name string, cfg runCfg, r *report) (*servedRun, error) {
	spec := serveSpecs[name]
	st, l, dir, setups, setupSlowdown, err := cfg.setUps(spec)
	if err != nil {
		return nil, err
	}
	out := cfg.offer(st, l)
	run := &servedRun{st: st, l: l, out: out, dataDir: dir}

	// A closed loop keeps every processor busy and slows down as the host
	// does, so its metrics are put at the reference host's speed; an open
	// loop's rate is the schedule's and its latency is mostly waiting, so
	// its values stay as measured (and are not steady: see README.md).
	sec := out.sec
	slow := out.yard.perWindow(sec)
	setupSlow := repeated(setupSlowdown, len(setups))
	r.Windows["host.slowdown_x"], r.Windows["host.setup_slowdown_x"] = slow, setupSlow[:1]
	r.set("host.slowdown_x", median(slow))
	if spec.rate > 0 {
		slow, setupSlow = nil, nil
	}
	r.setWindowed("setup_s", setups, setupSlow, lower)
	r.Samples["setup_s"] = setupRepeats(spec)

	for _, s := range out.samples {
		r.Attempted += int64(s.ops)
		r.Failed += int64(s.failed)
	}
	all := latencies(out.samples, sec.from, sec.to, false)
	r.Samples["latency"] = len(all)
	rates, p50s, cpus := sec.rates(out.samples, writes), sec.p50s(out.samples, false), sec.cpuPerOp(out.samples)
	r.setWindowed("goodput_ops_s", rates, slow, higher)
	r.setWindowed("latency_p50_ms", p50s, slow, lower)
	r.setWindowed("cpu_us_per_op", cpus, slow, lower)
	r.set("e2e.goodput_raw_ops_s", midmean(rates))
	r.set("e2e.latency_p50_raw_ms", midmean(p50s))
	r.set("e2e.cpu_raw_us_per_op", midmean(cpus))
	r.set("e2e.latency_p95_ms", percentile(all, 0.95))
	r.set("loadgen.latency_p99_ms", percentile(all, 0.99))
	r.set("loadgen.latency_max_ms", percentile(all, 1))
	// The server's CPU and memory are divided by all the work it did,
	// reads included.
	timedSecs := (sec.to - sec.from).Seconds()
	done := opsIn(out.samples, sec.from, sec.to, any1)
	r.set("e2e.rss_peak_mb", out.rssPeak/1024)
	if done > 0 {
		r.set("chain.rss_bytes_per_op", max(0, (out.rssEnd-out.rssStart)*1024/done))
	}
	r.set("e2e.failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))

	if spec.readers {
		rd := latencies(out.samples, sec.from, sec.to, true)
		r.Samples["read_latency"] = len(rd)
		r.set("e2e.read_ops_s", midmean(sec.rates(out.samples, reads)))
		r.set("e2e.read_p95_ms", percentile(rd, 0.95))
	}

	// The generator must not be the bottleneck: how long after a request
	// was due, and its connection free, did the generator send it.
	var late []float64
	for _, s := range out.samples {
		if s.due >= sec.from && s.due < sec.to {
			late = append(late, ms(s.start-s.free))
		}
	}
	late = sortedCopy(late)
	lateP95 := percentile(late, 0.95)
	cpuFrac := out.genCPU.Seconds() / out.wall.Seconds() / float64(l.workers)
	r.set("loadgen.late_p95_ms", lateP95)
	r.set("loadgen.cpu_frac", cpuFrac)
	// Half a millisecond of lateness is allowed whatever the latency: a Go
	// timer is not more punctual than that on a busy two-core host.
	if st.pid != 0 && (lateP95 > max(0.10*percentile(all, 0.50), 0.5) || cpuFrac > 0.8) {
		r.GeneratorLimited = true
		r.check(check{Name: "generator", Detail: fmt.Sprintf("generator_limited: late p95 %.3f ms against latency p50 %.3f ms, generator cpu_frac %.2f", lateP95, percentile(all, 0.50), cpuFrac)})
	}

	// Layer metrics from the /stats deltas over the timed section.
	a, b := out.before.Total, out.after.Total
	batches := float64(b.Batches.Batches - a.Batches.Batches)
	if batches > 0 {
		r.set("mempool.batch_mean_ops", float64(b.Batches.Ops-a.Batches.Ops)/batches)
		r.set("mempool.batches_per_s", batches/timedSecs)
	}
	r.set("mempool.batch_max_ops", float64(b.Batches.MaxSize))
	if sub := float64(b.Submitted - a.Submitted); sub > 0 {
		r.set("mempool.rejected_frac", float64(b.Rejected-a.Rejected)/sub)
		r.set("mempool.dup_frac", float64(b.Duplicates-a.Duplicates)/sub)
	}
	if acc := b.Accepted - a.Accepted; acc > 0 {
		r.set("chain.commit_mean_ms", ms(time.Duration((b.TotalCommitNanos-a.TotalCommitNanos)/acc)))
	}
	client := api.NewClient(st.addr)
	if cv, err := client.Conf(); err == nil {
		r.Env["conf"] = cv
	}

	r.check(l.verify(st.addr)...)
	// From the audit the check just made: one /audit verifies every peer's
	// whole chain, seconds of work after a long closed loop.
	if stats, err := client.Stats(); err == nil && l.height > 0 {
		r.set("chain.block_txs_mean", float64(stats.Total.Accepted)/float64(l.height))
	}
	if spec.durable {
		if err := run.killAndRecover(cfg, r); err != nil {
			return run, err
		}
	}
	r.Samples["audit.nudges"], r.Samples["audit.lagging_peers"] = l.nudges, l.lagging
	if l.lagging > 0 {
		r.Notes["audit"] = fmt.Sprintf("%d peer(s) never caught up, even with %d further requests after the load; 2f+1 agree and every chain verifies", l.lagging, l.nudges)
	}
	r.Attempted += int64(l.nudges * spec.batch)
	return run, nil
}

// killAndRecover measures what the journal left on disk, SIGKILLs the
// server, restarts it on the same directory and repeats the checks.
func (run *servedRun) killAndRecover(cfg runCfg, r *report) error {
	acked := float64(run.l.acked())
	bytes, segments := dirBytes(run.dataDir, "seg-*.wal")
	if acked > 0 {
		r.set("e2e.disk_bytes_per_op", float64(bytes)/acked)
		userBytes := acked * float64(valueBytes+len(workload.Key(0)))
		r.set("wal.disk_bytes_per_user_byte", float64(bytes)/userBytes)
	}
	r.set("wal.segments", float64(segments))

	start := time.Now()
	if run.st.proc != nil {
		_ = run.st.proc.Kill() // the kill's own error is the expected "signal: killed"
	} else if err := run.st.stop(); err != nil {
		return err
	}
	// A copy of one replica's journal, as the kill left it, for the wal
	// layer's own measurements on the traced run.
	if r.Trace {
		if err := copyDir(filepath.Join(run.dataDir, "shard0", "peer0"), filepath.Join(cfg.workDir, "wal-copy")); err != nil {
			return err
		}
		start = time.Now() // the copy is not part of recovery
	}
	st, err := cfg.boot(run.dataDir)
	if err != nil {
		return fmt.Errorf("restart on %s: %w", run.dataDir, err)
	}
	run.st = st
	client := api.NewClient(st.addr)
	auditErr := run.l.auditClean(st.addr)
	r.set("e2e.recover_s", time.Since(start).Seconds())

	// The recovered server must still commit: one more request, which is
	// also what its fresh /stats has to account for.
	before := run.l.acked()
	tgt := newAPITarget(st.addr, run.l.workers, false)
	s := run.l.do(tgt)(0, 0, func() time.Duration { return time.Since(start) })
	r.Attempted += int64(s.ops)
	r.Failed += int64(s.failed)
	stats, err := client.Stats()
	var statsErr error
	if err != nil {
		statsErr = err
	} else if got, want := stats.Total.Accepted+stats.Total.Duplicates, run.l.acked()-before; got != want {
		statsErr = fmt.Errorf("/stats accepted+duplicates = %d after restart, generator saw %d acks", got, want)
	}
	r.check(
		checkOf("recovered.audit", auditErr),
		checkOf("recovered.readback", run.l.readback(client)),
		checkOf("recovered.stats", statsErr),
	)
	return nil
}

func copyDir(from, to string) error {
	if err := os.RemoveAll(to); err != nil {
		return err
	}
	return filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
}

// runServe is the untraced run of a served workload.
func runServe(name string, cfg runCfg) (*report, error) {
	r := newReport(name, cfg, false)
	run, err := measureServe(name, cfg, r)
	if run != nil {
		if serr := run.st.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping server: %w", serr)
		}
	}
	if err != nil {
		return nil, err
	}
	r.Notes["netsim"] = "zero-delay in-process netsim between the four replicas: latency is processor time only"
	if serveSpecs[name].durable {
		r.Notes["flush_policy"] = "as shipped: group-commit fsync before every vote and ack"
	}
	r.finish()
	return r, nil
}
