package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/harness"
	"prever/internal/netsim"
	"prever/internal/workload"
)

// serveSpec is the load one served workload offers.
type serveSpec struct {
	rate    float64 // offered tx/s of an open loop; 0 means closed loop
	batch   int     // transactions per request; 1 goes through POST /submit
	keys    int     // key space
	zipf    bool    // zipfian 0.99 key choice instead of uniform
	readers bool    // ⌊C/2⌋ (at least 1) workers read with GET /get
	preload int     // keys written once during set-up, the lowest ranks first
	durable bool    // server journals to a data directory; SIGKILL + restart after the load
	// What mempool.batch_mean_ops must read for the workload to mean what
	// it says: full batches on the throughput path, single ops on the
	// latency path. Zero means unchecked.
	minBatchMean, maxBatchMean float64
}

var serveSpecs = map[string]serveSpec{
	"serve_batch":     {batch: 64, keys: 100_000, preload: 8192, minBatchMean: 16},
	"serve_single":    {rate: 200, batch: 1, keys: 100_000, maxBatchMean: 2},
	"serve_durable":   {rate: 2000, batch: 64, keys: 100_000, durable: true},
	"serve_readwrite": {batch: 16, keys: 10_000, zipf: true, readers: true, preload: 10_000},
}

const valueBytes = 64

// valueFor is the 64-byte value with the given identity, so the generator
// remembers one integer per key instead of the bytes it wrote.
func valueFor(id uint64) []byte {
	v := make([]byte, valueBytes)
	x := id
	for i := 0; i < valueBytes; i += 8 {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(v[i:], z^(z>>31))
	}
	return v
}

// stack is one running server: a prever-server child process, or the same
// layers assembled in this process behind a loopback listener.
type stack struct {
	addr string
	pid  int // 0 when in-process

	proc *harness.Proc

	net     *netsim.Network
	sharded *chain.Sharded
	hs      *http.Server
}

// boot starts a one-shard, f=1 server with conf.Defaults() over a
// zero-delay netsim and waits until it answers /health.
func (cfg runCfg) boot(dataDir string) (*stack, error) {
	if cfg.inProcess {
		return bootInProcess(dataDir)
	}
	var args []string
	if dataDir != "" {
		args = []string{"-data", dataDir}
	}
	p, err := harness.Start(cfg.serverBin, args...)
	if err != nil {
		return nil, err
	}
	if err := p.WaitHealthy(30 * time.Second); err != nil {
		_ = p.Stop()
		return nil, err
	}
	pid, err := childPID(filepath.Base(cfg.serverBin))
	if err != nil {
		_ = p.Stop()
		return nil, err
	}
	return &stack{addr: p.Addr, pid: pid, proc: p}, nil
}

func bootInProcess(dataDir string) (*stack, error) {
	conf.Reset()
	simnet := netsim.New(netsim.Config{})
	shard, err := chain.NewShard(simnet, chain.ShardConfig{Name: "shard0", F: 1, DataDir: dataDir})
	if err != nil {
		simnet.Close()
		return nil, err
	}
	sharded, err := chain.NewSharded(shard)
	if err != nil {
		simnet.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sharded.Close()
		simnet.Close()
		return nil, err
	}
	hs := &http.Server{Handler: api.NewServer(sharded).Handler()}
	go func() { _ = hs.Serve(ln) }() // returns when stop closes hs
	return &stack{addr: "http://" + ln.Addr().String(), net: simnet, sharded: sharded, hs: hs}, nil
}

func (s *stack) stop() error {
	if s.proc != nil {
		return s.proc.Stop()
	}
	err := s.hs.Close()
	if cerr := s.sharded.Close(); err == nil {
		err = cerr
	}
	s.net.Close()
	return err
}

// target is the depth of the stack a load is sent into: the wire API, the
// chain beneath it, or the consensus beneath that.
type target interface {
	// prepare converts wire transactions to what send takes; it runs
	// outside the request's timed call.
	prepare(txs []api.Tx) (any, error)
	// send submits one prepared request for worker w and reports how many
	// of its transactions were not acknowledged, and the name of the call
	// it wrapped.
	send(w int, req any) (failed int, span string)
	// get reads one key for worker w.
	get(w int, key string) (found bool)
}

// apiTarget is the served path: one api.Client, and so one connection,
// per worker.
type apiTarget struct {
	clients []*api.Client
	single  bool
}

func newAPITarget(addr string, workers int, single bool) *apiTarget {
	t := &apiTarget{single: single}
	for i := 0; i < workers; i++ {
		t.clients = append(t.clients, api.NewClient(addr))
	}
	return t
}

func (t *apiTarget) prepare(txs []api.Tx) (any, error) { return txs, nil }

func (t *apiTarget) send(w int, req any) (int, string) {
	txs := req.([]api.Tx)
	if t.single && len(txs) == 1 {
		if _, err := t.clients[w].Submit(txs[0]); err != nil && !api.IsDuplicate(err) {
			return 1, apiSpan(true)
		}
		return 0, apiSpan(true)
	}
	results, err := t.clients[w].SubmitBatch(txs)
	if err != nil {
		return len(txs), apiSpan(false)
	}
	failed := 0
	for _, r := range results {
		if r.Code != "" && !r.Duplicate {
			failed++
		}
	}
	return failed, apiSpan(false)
}

func (t *apiTarget) get(w int, key string) bool {
	_, found, err := t.clients[w].Get(key)
	return err == nil && found
}

func apiSpan(single bool) string {
	if single {
		return "api.Client.Submit"
	}
	return "api.Client.SubmitBatch"
}

// writer is one writing worker's key choice and its record of what the
// server acknowledged. Writers own disjoint keys (index ≡ id mod writers),
// so a key's last acknowledged value is known without cross-worker order.
type writer struct {
	id, writers int
	rank        func() uint64
	issued      uint64
	last        map[uint64]uint64 // key index -> identity of its last acked value
	tail        []uint64          // key indexes of the last acked request
	acked       int64
}

func newWriters(spec serveSpec, seed int64, n int) ([]*writer, error) {
	ws := make([]*writer, n)
	for i := range ws {
		per := uint64(spec.keys / n)
		var rank func() uint64
		if spec.zipf {
			z, err := workload.NewZipf(per, 0.99, seed*1000+int64(i))
			if err != nil {
				return nil, err
			}
			rank = z.Next
		} else {
			u, err := workload.NewUniform(per, seed*1000+int64(i))
			if err != nil {
				return nil, err
			}
			rank = u.Next
		}
		ws[i] = &writer{id: i, writers: n, rank: rank, last: make(map[uint64]uint64)}
	}
	return ws, nil
}

// build makes the next request of n puts. idx and ids name the keys and
// values so ack can record them once the server has answered.
func (w *writer) build(n int) (txs []api.Tx, idx, ids []uint64) {
	return w.puts(n, func(int) uint64 { return w.rank() })
}

// puts makes n puts of fresh values to this writer's keys of the given
// ranks.
func (w *writer) puts(n int, rank func(i int) uint64) (txs []api.Tx, idx, ids []uint64) {
	txs = make([]api.Tx, n)
	idx, ids = make([]uint64, n), make([]uint64, n)
	for i := range txs {
		idx[i] = rank(i)*uint64(w.writers) + uint64(w.id)
		w.issued++
		ids[i] = uint64(w.id)<<48 | w.issued
		txs[i] = api.Tx{Kind: api.KindPut, Key: workload.Key(int(idx[i])), Value: valueFor(ids[i])}
	}
	return txs, idx, ids
}

func (w *writer) ack(idx, ids []uint64) {
	for i, k := range idx {
		w.last[k] = ids[i]
	}
	w.tail = idx
	w.acked += int64(len(idx))
}

// load is one run of a served workload's traffic against a target.
type load struct {
	spec     serveSpec
	workers  int
	writers  []*writer
	readKey  []func() uint64 // per reading worker
	rec      *recorder       // nil when not tracing
	readPace time.Duration   // least time between a reader's reads (depth replays)
	nudges   int             // extra requests sent after the load to let a lagging replica catch up
	lagging  int             // peers still behind after the nudges (at most f)
	height   int             // blocks on the first shard's first peer at the last audit
}

func newLoad(spec serveSpec, seed int64, workers int, withReaders bool) (*load, error) {
	l := &load{spec: spec, workers: workers}
	nw := workers
	if spec.readers && withReaders {
		nw = (workers + 1) / 2
		if nw == workers { // a single worker still needs a reader beside it
			l.workers++
		}
		for r := nw; r < l.workers; r++ {
			z, err := workload.NewZipf(uint64(spec.keys), 0.99, seed*1000+500+int64(r))
			if err != nil {
				return nil, err
			}
			l.readKey = append(l.readKey, z.Next)
		}
	}
	var err error
	l.writers, err = newWriters(spec, seed, nw)
	return l, err
}

// do is the loops' request: workers below len(writers) write, the rest read.
func (l *load) do(tgt target) request {
	return func(w, seq int, now func() time.Duration) sample {
		if w >= len(l.writers) {
			key := workload.Key(int(l.readKey[w-len(l.writers)]()))
			s := sample{ops: 1, read: true, start: now()}
			if !tgt.get(w, key) {
				s.failed = 1
			}
			s.end = now()
			// Sleeping, not spinning: a spinning reader would hold one of
			// the C processors the in-process server needs.
			time.Sleep(s.start + l.readPace - s.end)
			return s
		}
		wr := l.writers[w]
		txs, idx, ids := wr.build(l.spec.batch)
		req, err := tgt.prepare(txs)
		s := sample{ops: len(txs), start: now()}
		if err != nil {
			s.failed = len(txs)
		} else {
			s.failed, s.span = tgt.send(w, req)
		}
		s.end = now()
		if s.failed == 0 {
			wr.ack(idx, ids)
		}
		l.rec.add(s.span, w, seq, s.start, s.end)
		return s
	}
}

// run offers the workload's traffic for d.
func (l *load) run(tgt target, d time.Duration) []sample {
	if l.spec.rate == 0 {
		return closedLoop(l.workers, d, l.do(tgt))
	}
	interval := time.Duration(float64(l.spec.batch) / l.spec.rate * float64(time.Second))
	return openLoop(l.workers, d, interval, l.do(tgt))
}

// preloadKeys writes the first spec.preload keys once, through the writers'
// bookkeeping so the read-back check covers preloaded values too.
func (l *load) preloadKeys(tgt target) error {
	const chunk = 256
	var wg sync.WaitGroup
	errs := make([]error, len(l.writers))
	for _, wr := range l.writers {
		wg.Add(1)
		go func(wr *writer) {
			defer wg.Done()
			per := l.spec.preload / wr.writers
			for lo := 0; lo < per; lo += chunk {
				txs, idx, ids := wr.puts(min(chunk, per-lo), func(i int) uint64 { return uint64(lo + i) })
				req, err := tgt.prepare(txs)
				if err == nil {
					if failed, _ := tgt.send(wr.id, req); failed != 0 {
						err = errors.New("preload: a put was not acknowledged")
					}
				}
				if err != nil {
					errs[wr.id] = err
					return
				}
				wr.ack(idx, ids)
			}
		}(wr)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (l *load) acked() int64 {
	var n int64
	for _, w := range l.writers {
		n += w.acked
	}
	return n
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkOf(name string, err error) check {
	if err != nil {
		return check{Name: name, Detail: err.Error()}
	}
	return check{Name: name, OK: true}
}

// verify runs the client-visible checks against a live server: sampled
// keys and every writer's whole last request read back their last
// acknowledged value, /audit is clean and converged, and /stats accounts
// for exactly the acknowledgements the generator saw.
func (l *load) verify(addr string) []check {
	c := api.NewClient(addr)
	audit := l.auditClean(addr) // first: its nudges are writes the other two must see
	return []check{
		checkOf("readback", l.readback(c)),
		checkOf("audit", audit),
		checkOf("stats", l.statsAgree(c)),
	}
}

func (l *load) readback(c *api.Client) error {
	const sampled = 2000
	type kv struct{ key, id uint64 }
	var want []kv
	for _, w := range l.writers {
		keys := make([]uint64, 0, len(w.last))
		for k := range w.last {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		step := max(1, len(keys)*len(l.writers)/sampled)
		for i := 0; i < len(keys); i += step {
			want = append(want, kv{keys[i], w.last[keys[i]]})
		}
		for _, k := range w.tail {
			want = append(want, kv{k, w.last[k]})
		}
	}
	for _, e := range want {
		got, found, err := c.Get(workload.Key(int(e.key)))
		if err != nil {
			return err
		}
		if !found || !bytes.Equal(got, valueFor(e.id)) {
			return fmt.Errorf("key %s does not hold its last acknowledged value", workload.Key(int(e.key)))
		}
	}
	return nil
}

// auditClean polls /audit until every peer holds the same verified chain.
// Peers apply asynchronously, so "not converged yet" is retried. A replica
// that missed a message only catches up at a PBFT checkpoint, and
// checkpoints need traffic, so after a second of waiting the check sends
// further requests between polls (counted in nudges; acknowledged, checked
// and accounted like any other) — three checkpoint intervals' worth.
//
// If a replica is still behind after that, the check settles for what PBFT
// promises with f faulty replicas: every chain verifies and 2f+1 peers stand
// at the same height. The straggler is counted in lagging and shows in
// the record; about one serve_batch run in thirty wedges a replica for good
// at a checkpoint boundary, which is the system's defect to fix, and every
// acknowledged write is still read back from the peer that serves reads.
func (l *load) auditClean(addr string) error {
	c := api.NewClient(addr)
	nudge := l.do(newAPITarget(addr, l.workers, l.spec.batch == 1))
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	const rounds, perRound = 3, 128
	for round := 0; ; {
		a, err := c.Audit()
		if err != nil {
			return err
		}
		if len(a.Shards) > 0 && len(a.Shards[0].Heights) > 0 {
			l.height = a.Shards[0].Heights[0]
		}
		if a.Clean && a.Converged {
			l.lagging = 0
			return nil
		}
		if !a.Clean {
			return fmt.Errorf("audit: %+v", a)
		}
		if now() < time.Second {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if round == rounds {
			if l.lagging = stragglers(a); l.lagging >= 0 {
				return nil
			}
			return fmt.Errorf("audit after %d nudges: fewer than 2f+1 peers agree: %+v", l.nudges, a)
		}
		round++
		for i := 0; i < perRound; i++ {
			if s := nudge(0, l.nudges, now); s.failed > 0 {
				return fmt.Errorf("audit: nudge request %d failed", l.nudges)
			}
			l.nudges++
		}
	}
}

// stragglers is how many peers are behind when at least 2f+1 of every
// shard's peers stand at its greatest height, and -1 when fewer do.
func stragglers(a api.AuditResponse) int {
	behind := 0
	for _, sh := range a.Shards {
		top, at := 0, 0
		for _, h := range sh.Heights {
			switch {
			case h > top:
				top, at = h, 1
			case h == top:
				at++
			}
		}
		n := len(sh.Heights)
		if at < n-(n-1)/3 {
			return -1
		}
		behind += n - at
	}
	return behind
}

func (l *load) statsAgree(c *api.Client) error {
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if got, want := st.Total.Accepted+st.Total.Duplicates, l.acked(); got != want {
		return fmt.Errorf("/stats accepted+duplicates = %d, generator saw %d acks", got, want)
	}
	return nil
}

// served is what one load against one server leaves behind.
type served struct {
	samples  []sample
	sec      section       // the timed section inside the samples' clock, with the server's CPU clock
	genCPU   time.Duration // generator CPU over the whole load
	wall     time.Duration
	before   api.StatsResponse // /stats at the start of the timed section
	after    api.StatsResponse
	rssStart float64 // server VmRSS in kB at the start of the timed section
	rssEnd   float64
	rssPeak  float64 // VmHWM in kB
	yard     *yardstick
}

// setUp is what a served workload does before its first timed request:
// boot a server, wait for /health, build the generators, preload.
func (cfg runCfg) setUp(spec serveSpec, dataDir string) (*stack, *load, time.Duration, error) {
	start := time.Now()
	st, err := cfg.boot(dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	l, err := newLoad(spec, cfg.seed, cfg.workers, true)
	if err == nil && spec.preload > 0 {
		err = l.preloadKeys(newAPITarget(st.addr, l.workers, false))
	}
	if err != nil {
		_ = st.stop()
		return nil, nil, 0, err
	}
	return st, l, time.Since(start), nil
}

// offer sends the load (warm-up, then the timed section) to a server that
// is set up, and leaves it running so the caller can check it, kill it,
// or read its files.
func (cfg runCfg) offer(st *stack, l *load) *served {
	out := &served{sec: newSection(cfg.warm, cfg.warm+cfg.timed)}
	client := api.NewClient(st.addr)
	serverCPU := selfCPU // in-process there is no server process: the shared one stands in
	if st.pid != 0 {
		serverCPU = func() time.Duration { c, _ := procCPU(st.pid); return c }
	}
	var atWarm sync.WaitGroup
	atWarm.Add(1)
	time.AfterFunc(cfg.warm, func() {
		defer atWarm.Done()
		out.before, _ = client.Stats()
		if st.pid != 0 {
			out.rssStart = procStatusKB(st.pid, "VmRSS")
		}
	})
	waitCPU := out.sec.probeCPU(serverCPU)
	gen0, wall0 := selfCPU(), time.Now()
	out.yard = startYardstick()
	out.samples = l.run(newAPITarget(st.addr, l.workers, l.spec.batch == 1), cfg.warm+cfg.timed)
	out.genCPU, out.wall = selfCPU()-gen0, time.Since(wall0)
	out.yard.halt()
	atWarm.Wait()
	waitCPU()
	out.after, _ = client.Stats()
	if st.pid != 0 {
		out.rssEnd = procStatusKB(st.pid, "VmRSS")
		out.rssPeak = procStatusKB(st.pid, "VmHWM")
	}
	return out
}

// freshDataDir returns an empty data directory for a durable server, or ""
// for an in-memory one.
func (cfg runCfg) freshDataDir(spec serveSpec, tag string) (string, error) {
	if !spec.durable {
		return "", nil
	}
	dir := filepath.Join(cfg.workDir, "data-"+tag)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
