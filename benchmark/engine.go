package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"prever/internal/commit"
	"prever/internal/constraint"
	"prever/internal/core"
	"prever/internal/group"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/store"
	"prever/internal/workload"
)

// callSize is how many updates one Submit*Batch call carries.
const callSize = 16

// The engine calls the traced run wraps.
const (
	zkSpan = "core.ZKBoundManager.SubmitZKBatch"
	heSpan = "core.EncryptedManager.SubmitEncryptedBatch"
)

// engineRun is the timed section of an engine workload: calls of callSize
// over the corpus, against a fresh manager each time the corpus runs out,
// until the deadline.
type engineRun struct {
	samples []sample
	sec     section // with this process's CPU clock
	passes  int
	yard    *yardstick
}

// runCalls drives the section on the given number of workers, each with
// managers of its own. newPass returns the submit function of a fresh
// manager; submit handles corpus[lo:hi] and reports how many of those
// updates got the wrong outcome.
func runCalls(d time.Duration, n, workers int, rec *recorder, spanName string, newPass func() (submit func(lo, hi int) (wrong int, err error), err error)) (*engineRun, error) {
	run := &engineRun{sec: newSection(0, d)}
	waitCPU := run.sec.probeCPU(selfCPU)
	t0 := time.Now()
	run.yard = startYardstick()
	defer run.yard.halt()
	per := make([][]sample, workers)
	passes := make([]int, workers)
	err := parallel(workers, workers, func(w int) error {
		for seq := 0; time.Since(t0) < d; {
			submit, err := newPass()
			if err != nil {
				return err
			}
			passes[w]++
			for lo := 0; lo < n && time.Since(t0) < d; lo += callSize {
				hi := min(lo+callSize, n)
				start := time.Since(t0)
				wrong, err := submit(lo, hi)
				end := time.Since(t0)
				if err != nil {
					return err
				}
				per[w] = append(per[w], sample{due: start, start: start, end: end, ops: hi - lo, failed: wrong})
				rec.add(spanName, w, seq, start, end)
				seq++
			}
		}
		return nil
	})
	waitCPU()
	if err != nil {
		return nil, err
	}
	for w := range per {
		run.samples = append(run.samples, per[w]...)
		run.passes += passes[w]
	}
	return run, nil
}

// sectionFor is an engine run's timed section: the traced run halves it,
// to leave time for the layers measured on their own afterwards.
func (cfg runCfg) sectionFor(trace bool) time.Duration {
	if trace {
		return cfg.timed / 2
	}
	return cfg.timed
}

// engineMetrics fills the end-to-end metrics every engine run reports.
// Both engines keep every processor busy (engine_zk inside a call,
// engine_he by its workers), so their metrics are put at the reference
// host's speed; setupSlow is the slowdown while the corpus was made.
func engineMetrics(r *report, run *engineRun, setup time.Duration, setupSlow float64) {
	for _, s := range run.samples {
		r.Attempted += int64(s.ops)
		r.Failed += int64(s.failed)
	}
	calls := latencies(run.samples, 0, run.sec.to, false)
	r.Samples["latency"] = len(calls)
	r.Samples["passes"] = run.passes
	slow := run.yard.perWindow(run.sec)
	r.Windows["host.slowdown_x"], r.Windows["host.setup_slowdown_x"] = slow, []float64{setupSlow}
	r.set("host.slowdown_x", median(slow))
	rates, p50s, cpus := run.sec.rates(run.samples, writes), run.sec.p50s(run.samples, false), run.sec.cpuPerOp(run.samples)
	r.setWindowed("setup_s", []float64{setup.Seconds()}, []float64{setupSlow}, lower)
	r.setWindowed("goodput_ops_s", rates, slow, higher)
	r.setWindowed("latency_p50_ms", p50s, slow, lower)
	r.setWindowed("cpu_us_per_op", cpus, slow, lower)
	r.set("e2e.goodput_raw_ops_s", midmean(rates))
	r.set("e2e.latency_p50_raw_ms", midmean(p50s))
	r.set("e2e.cpu_raw_us_per_op", midmean(cpus))
	r.set("e2e.latency_p95_ms", percentile(calls, 0.95))
	r.set("loadgen.latency_p99_ms", percentile(calls, 0.99))
	r.set("loadgen.latency_max_ms", percentile(calls, 1))
	r.set("e2e.rss_peak_mb", procStatusKB(os.Getpid(), "VmHWM")/1024)
	r.set("e2e.failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))
}

// parallel runs f(i) for i in [0, n) on the given number of goroutines and
// joins the errors.
func parallel(workers, n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// ---- engine_zk ----

const (
	zkBound  = 40
	zkName   = "bench-zk"
	zkGroups = 8
)

// zkCorpus is the proof-carrying updates of one run, group-major: a call
// of 16 carries two whole groups, each verified as one fold.
type zkCorpus struct {
	params   *commit.Params
	updates  []core.ZKUpdate
	values   []int64
	perGroup int
	proveMS  float64 // mean time to produce one update
}

// newZKCorpus has one core.ZKOwner per group produce its updates, groups
// in parallel. Values come from the seed and are small enough that every
// group's total stays within the bound: every honest update is accepted.
func newZKCorpus(seed int64, groups, perGroup, workers int) (*zkCorpus, error) {
	c := &zkCorpus{
		params:   commit.NewParams(group.MODP2048()),
		updates:  make([]core.ZKUpdate, groups*perGroup),
		values:   make([]int64, groups*perGroup),
		perGroup: perGroup,
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range c.values {
		c.values[i] = rng.Int63n(zkBound/int64(perGroup) + 1)
	}
	start := time.Now()
	err := parallel(workers, groups, func(g int) error {
		owner := core.NewZKOwner(c.params, zkName, zkBound)
		name := fmt.Sprintf("group-%d", g)
		for j := 0; j < perGroup; j++ {
			i := g*perGroup + j
			u, err := owner.ProduceUpdate(fmt.Sprintf("u-%d-%d", g, j), "owner", name, c.values[i])
			if err != nil {
				return err
			}
			c.updates[i] = u
		}
		return nil
	})
	c.proveMS = ms(time.Since(start)) * float64(min(workers, groups)) / float64(len(c.updates))
	return c, err
}

// newPass is a fresh manager's submit function: every update is honest,
// so a receipt that is not an acceptance is a wrong outcome.
func (c *zkCorpus) newPass(last **core.ZKBoundManager) func() (func(lo, hi int) (int, error), error) {
	return func() (func(lo, hi int) (int, error), error) {
		m, err := core.NewZKBoundManager(zkName, c.params, zkBound)
		if err != nil {
			return nil, err
		}
		*last = m
		return func(lo, hi int) (int, error) {
			rs, err := m.SubmitZKBatch(c.updates[lo:hi])
			if err != nil {
				return 0, err
			}
			wrong := 0
			for _, r := range rs {
				if !r.Accepted {
					wrong++
				}
			}
			return wrong, nil
		}, nil
	}
}

// tamperProbe submits one group with one update carrying another update's
// proof. The manager must accept the updates before it, reject it, and
// reject the rest of the group, whose proofs were made over a running
// total that includes the rejected value.
func (c *zkCorpus) tamperProbe() (time.Duration, error) {
	m, err := core.NewZKBoundManager(zkName, c.params, zkBound)
	if err != nil {
		return 0, err
	}
	us := append([]core.ZKUpdate(nil), c.updates[:c.perGroup]...)
	bad := c.perGroup / 2
	us[bad].Proof = c.updates[len(c.updates)-1].Proof // another group's: well formed, wrong statement
	start := time.Now()
	rs, err := m.SubmitZKBatch(us)
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	for i, r := range rs {
		if want := i < bad; r.Accepted != want {
			return took, fmt.Errorf("tamper probe: update %d accepted=%v, want %v", i, r.Accepted, want)
		}
	}
	return took, auditLedger(m.Ledger())
}

func auditLedger(l *ledger.Ledger) error {
	if rep := ledger.Audit(l.Export(), l.Digest()); !rep.Clean() {
		return fmt.Errorf("ledger audit not clean: %+v", rep)
	}
	return nil
}

func zkSizes(cfg runCfg) (groups, perGroup int) {
	if cfg.small {
		return 2, 2
	}
	return zkGroups, 8
}

func runZK(cfg runCfg, trace bool) (*report, error) {
	r := newReport("engine_zk", cfg, trace)
	groups, perGroup := zkSizes(cfg)
	setupStart, setupYard := time.Now(), startYardstick()
	corpus, err := newZKCorpus(cfg.seed, groups, perGroup, cfg.workers)
	setupYard.halt()
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	var rec *recorder
	if trace {
		rec = newRecorder(map[string]string{"zk.VerifyBoundBatch": zkSpan})
	}
	var last *core.ZKBoundManager
	// One caller: SubmitZKBatch verifies a call's groups side by side.
	run, err := runCalls(cfg.sectionFor(trace), len(corpus.updates), 1, rec, zkSpan, corpus.newPass(&last))
	if err != nil {
		return nil, err
	}
	engineMetrics(r, run, setup, setupYard.slowdown(0, time.Hour))
	r.check(checkOf("ledger.audit", auditLedger(last.Ledger())))
	_, probeErr := corpus.tamperProbe()
	r.Attempted += int64(perGroup)
	r.check(checkOf("tamper", probeErr))
	if trace {
		if err := traceZK(cfg, r, corpus, run, last, rec); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}

// ---- engine_he ----

const (
	heBits    = 1024
	heWorkers = 200
	heRule    = "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40"
)

// heCorpus is a Crowdwork trace, its ciphertext form, and what the
// non-private manager decides on its plaintext.
type heCorpus struct {
	helper    heHelper
	spec      *core.BoundSpec
	events    []workload.TaskEvent
	updates   []core.EncryptedUpdate
	accept    []bool // PlainManager's decisions, the reference
	encryptMS float64
	plainUS   float64
}

// heHelper is mpc.Helper around a key the benchmark chose: it decrypts a
// masked difference and returns only its sign.
type heHelper struct{ sk *he.PrivateKey }

func (h heHelper) PublicKey() *he.PublicKey { return &h.sk.PublicKey }

func (h heHelper) SignOfMasked(ct *he.Ciphertext) (int, error) {
	m, err := h.sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return m.Sign(), nil
}

// keyStream is a fixed source of key material. crypto/rand.Prime reads a
// single byte now and then so that callers cannot depend on its output;
// those reads get a zero and do not advance the stream, so the primes
// found are always the same.
type keyStream struct{ x uint64 }

func (k *keyStream) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	for i := range p {
		k.x += 0x9e3779b97f4a7c15 // splitmix64
		z := k.x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p[i] = byte(z ^ (z >> 31))
	}
	return len(p), nil
}

var heSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "ts", Kind: store.KindTime},
)

// newHECorpus also returns the set-up time: everything it did.
func newHECorpus(seed int64, n, workers int) (*heCorpus, time.Duration, error) {
	began := time.Now()
	form, ok := constraint.CompileBound(constraint.MustParse(heRule))
	if !ok {
		return nil, 0, errors.New("engine_he: rule is not a linear bound")
	}
	spec, err := core.DeriveBoundSpec("flsa", form)
	if err != nil {
		return nil, 0, err
	}
	// One key for every run and seed: what a modular exponentiation costs
	// differs by several per cent from key to key, and a run makes one.
	// Prime search takes as long as its luck, so on a fixed stream it
	// always takes the same.
	c := &heCorpus{spec: spec}
	sk, err := he.GenerateKey(heBits, &keyStream{})
	if err != nil {
		return nil, 0, err
	}
	c.helper = heHelper{sk}
	gen, err := workload.NewCrowdwork(workload.CrowdworkConfig{
		Workers: heWorkers, HotWorkers: true, Seed: seed,
		Start: time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, 0, err
	}
	c.events = gen.Generate(n)
	c.updates = make([]core.EncryptedUpdate, n)
	pk := c.helper.PublicKey()
	start := time.Now()
	err = parallel(workers, n, func(i int) error {
		ev := c.events[i]
		ct, err := pk.EncryptInt(ev.Hours, nil)
		if err != nil {
			return err
		}
		c.updates[i] = core.EncryptedUpdate{
			ID: ev.ID, Producer: ev.Platform, Group: ev.Worker, TS: ev.TS,
			Enc: map[string]*he.Ciphertext{"hours": ct},
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	c.encryptMS = ms(time.Since(start)) * float64(workers) / float64(n)

	// The reference decisions: the same trace, in the clear.
	plain := core.NewPlainManager("plain", nil)
	plain.AddTable(store.NewTable("tasks", heSchema))
	cons, err := core.NewConstraint("flsa", heRule, core.Regulation, core.Public, "bench")
	if err != nil {
		return nil, 0, err
	}
	plain.AddConstraint(cons)
	c.accept = make([]bool, n)
	start = time.Now()
	for i, ev := range c.events {
		rcpt, err := plain.Submit(core.Update{
			ID: ev.ID, Producer: ev.Platform, Table: "tasks", Key: ev.ID, TS: ev.TS,
			Row: store.Row{"worker": store.String_(ev.Worker), "hours": store.Int(ev.Hours), "ts": store.Time(ev.TS)},
		})
		if err != nil {
			return nil, 0, err
		}
		c.accept[i] = rcpt.Accepted
	}
	c.plainUS = us(time.Since(start)) / float64(n)
	return c, time.Since(began), nil
}

// newPass is a fresh manager's submit function: a decision that differs
// from the plaintext reference is a wrong outcome; a rejection the
// reference also makes is a correct one.
func (c *heCorpus) newPass(last **core.EncryptedManager) func() (func(lo, hi int) (int, error), error) {
	var mu sync.Mutex // callers start passes side by side
	return func() (func(lo, hi int) (int, error), error) {
		m, err := core.NewEncryptedManager("flsa", c.helper.PublicKey(), c.helper, c.spec)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		*last = m
		mu.Unlock()
		return func(lo, hi int) (int, error) {
			rs, err := m.SubmitEncryptedBatch(c.updates[lo:hi])
			if err != nil {
				return 0, err
			}
			wrong := 0
			for i, r := range rs {
				if r.Accepted != c.accept[lo+i] {
					wrong++
				}
			}
			return wrong, nil
		}, nil
	}
}

func runHE(cfg runCfg, trace bool) (*report, error) {
	r := newReport("engine_he", cfg, trace)
	n := 960
	if cfg.small {
		n = 32
	}
	setupYard := startYardstick()
	corpus, setup, err := newHECorpus(cfg.seed, n, cfg.workers)
	setupYard.halt()
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if trace {
		rec = newRecorder(map[string]string{"mpc.CheckBound": heSpan})
	}
	var last *core.EncryptedManager
	// C callers, a manager each: one EncryptedManager works through its
	// calls on one processor.
	run, err := runCalls(cfg.sectionFor(trace), n, cfg.workers, rec, heSpan, corpus.newPass(&last))
	if err != nil {
		return nil, err
	}
	engineMetrics(r, run, setup, setupYard.slowdown(0, time.Hour))
	rejected := 0
	for _, a := range corpus.accept {
		if !a {
			rejected++
		}
	}
	r.Notes["reference_rejections"] = fmt.Sprintf("%d of %d updates break the 40 h bound in the clear; rejecting them is the correct outcome", rejected, n)
	r.check(checkOf("ledger.audit", auditLedger(last.Ledger())))
	if trace {
		if err := traceHE(cfg, r, corpus, run, rec); err != nil {
			return nil, err
		}
	}
	r.finish()
	return r, nil
}
