package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/netsim"
	"prever/internal/pbft"
)

// chainTarget sends into chain.Sharded, the layer the HTTP handlers call.
type chainTarget struct{ sharded *chain.Sharded }

func (t chainTarget) prepare(txs []api.Tx) (any, error) {
	out := make([]chain.Tx, len(txs))
	for i, tx := range txs {
		ctx, err := tx.ToChain()
		if err != nil {
			return nil, err
		}
		out[i] = ctx
	}
	return out, nil
}

func (t chainTarget) send(_ int, req any) (int, string) {
	failed := 0
	for _, res := range t.sharded.SubmitBatch(req.([]chain.Tx)) {
		if res.Err != nil && !errors.Is(res.Err, chain.ErrDuplicate) {
			failed++
		}
	}
	return failed, chainSpan
}

func (t chainTarget) get(_ int, key string) bool {
	_, err := t.sharded.ShardFor(key).Peers()[0].Get(key)
	return err == nil
}

// pbftTarget sends each request's transactions as one batched consensus
// instance, which is what the mempool's batcher hands pbft.
type pbftTarget struct{ client *pbft.Client }

func (t pbftTarget) prepare(txs []api.Tx) (any, error) {
	ops := make([][]byte, len(txs))
	for i, tx := range txs {
		ctx, err := tx.ToChain()
		if err != nil {
			return nil, err
		}
		if ops[i], err = json.Marshal(ctx); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

func (t pbftTarget) send(_ int, req any) (int, string) {
	ops := req.([][]byte)
	if err := t.client.SubmitBatch(ops, 10*time.Second); err != nil {
		return len(ops), pbftSpan
	}
	return 0, pbftSpan
}

func (t pbftTarget) get(int, string) bool { return true }

// pbftCluster is four in-memory or durable replicas with a no-op applier.
type pbftCluster struct {
	net      *netsim.Network
	replicas []*pbft.Replica
	client   *pbft.Client
}

func newPBFTCluster(dataDir string) (*pbftCluster, error) {
	c := &pbftCluster{net: netsim.New(netsim.Config{})}
	ids := []string{"p0", "p1", "p2", "p3"}
	for _, id := range ids {
		var r *pbft.Replica
		var err error
		if dataDir != "" {
			r, err = pbft.NewDurableReplica(c.net, id, ids, 1, nil, pbft.Options{}, pbft.DurableOptions{
				Dir: filepath.Join(dataDir, id), SnapshotEvery: conf.SnapshotEvery(), SegmentBytes: conf.WALSegmentBytes(),
			})
		} else {
			r, err = pbft.NewReplica(c.net, id, ids, 1, nil, pbft.Options{})
		}
		if err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
	}
	client, err := pbft.NewClient(c.net, c.replicas, "bench", pbft.ClientOptions{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = client
	return c, nil
}

func (c *pbftCluster) close() {
	for _, r := range c.replicas {
		_ = r.CloseStorage() // nothing to close on an in-memory replica
	}
	c.net.Close()
}

// depthResult is the workload's traffic as seen at one depth of a replay.
type depthResult struct {
	writeP50, readP50 time.Duration
	writes            int
	sent, dropped     int64 // netsim messages over the whole replay
	ops               int64 // acknowledged writes over the whole replay
	viewMax           uint64
}

// depthStack is the stack assembled in this process for one depth: "api"
// over a loopback listener, "chain" straight into chain.Sharded, "pbft"
// straight into the consensus client of four replicas with a no-op applier.
type depthStack struct {
	depth string
	tgt   target
	net   *netsim.Network
	views func() uint64
	stop  func() error
}

func (cfg runCfg) openDepth(spec serveSpec, depth string, workers int) (*depthStack, error) {
	dataDir, err := cfg.freshDataDir(spec, "replay-"+depth)
	if err != nil {
		return nil, err
	}
	if depth == "pbft" {
		c, err := newPBFTCluster(dataDir)
		if err != nil {
			return nil, err
		}
		return &depthStack{depth: depth, tgt: pbftTarget{c.client}, net: c.net,
			views: func() uint64 { return maxView(c.replicas) },
			stop:  func() error { c.close(); return nil }}, nil
	}
	st, err := bootInProcess(dataDir)
	if err != nil {
		return nil, err
	}
	ds := &depthStack{depth: depth, tgt: chainTarget{st.sharded}, net: st.net, stop: st.stop,
		views: func() uint64 { return maxView(st.sharded.Shards()[0].Replicas()) }}
	if depth == "api" {
		ds.tgt = newAPITarget(st.addr, workers, spec.batch == 1)
	}
	return ds, nil
}

// rotating sends each worker's successive requests to successive depths,
// so every depth is measured over the same seconds of the same schedule.
type rotating struct {
	depths []target
	turn   []int // per worker
}

func (t *rotating) prepare(txs []api.Tx) (any, error) {
	reqs := make([]any, len(t.depths))
	for i, d := range t.depths {
		var err error
		if reqs[i], err = d.prepare(txs); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

func (t *rotating) send(w int, req any) (int, string) {
	k := t.turn[w] % len(t.depths)
	t.turn[w]++
	return t.depths[k].send(w, req.([]any)[k])
}

func (t *rotating) get(w int, key string) bool { return t.depths[0].get(w, key) }

// replayRounds is how many times a closed loop visits each depth.
const replayRounds = 6

// replay offers the workload's seeded traffic to the api, chain and pbft
// depths, each a fresh stack, with in-flight fixed at C, and pairs the
// depths in time: this host's speed wanders by 20 % and more over seconds
// to minutes, and depths measured one after the other would read that as a
// layer's time. An open loop sends one schedule whose successive requests
// rotate over the depths (its few requests per second leave too few samples
// otherwise, and with in-flight mostly below one a request does not notice
// that its neighbours went elsewhere). A closed loop visits the depths in
// rounds of short slices, all workers at the same depth at a time. Either
// way a depth's span is the best-quartile value of its windows' or slices'
// p50, as measured: depths paired in time need no yardstick.
//
// Below the api depth a reader waits out the api depth's read time between
// reads: without the layers above, a closed-loop reader would read fifty
// times as often and the write path would be measured under another load.
func (cfg runCfg) replay(spec serveSpec, rec *recorder) (map[string]depthResult, error) {
	l, err := newLoad(spec, cfg.seed, cfg.workers, true)
	if err != nil {
		return nil, err
	}
	l.rec = rec
	var stacks []*depthStack
	stopAll := func() error {
		var errs []error
		for _, ds := range stacks {
			errs = append(errs, ds.stop())
		}
		return errors.Join(errs...)
	}
	fail := func(err error) (map[string]depthResult, error) {
		_ = stopAll()
		return nil, err
	}
	rot := &rotating{turn: make([]int, l.workers)}
	for _, depth := range []string{"api", "chain", "pbft"} {
		ds, err := cfg.openDepth(spec, depth, l.workers)
		if err != nil {
			return fail(err)
		}
		stacks = append(stacks, ds)
		rot.depths = append(rot.depths, ds.tgt)
		if spec.preload > 0 {
			if err := l.preloadKeys(ds.tgt); err != nil {
				return fail(err)
			}
		}
	}
	n := time.Duration(len(stacks))

	// p50s[i] collects stack i's window or slice medians, writes then
	// reads. tally adds those of the samples due in [from, to).
	p50s := make([][2][]float64, len(stacks))
	out := make([]depthResult, len(stacks))
	tally := func(i int, samples []sample, from, to time.Duration) {
		for k, read := range []bool{false, true} {
			if lat := latencies(samples, from, to, read); len(lat) > 0 {
				p50s[i][k] = append(p50s[i][k], percentile(lat, 0.5))
				if !read {
					out[i].writes += len(lat)
				}
			}
		}
	}
	// count adds the samples' acknowledged writes, the divisor of the
	// netsim counters, which cover the same requests.
	count := func(i int, samples []sample) error {
		for _, s := range samples {
			if s.failed > 0 {
				return fmt.Errorf("replay: a request through %s failed", s.span)
			}
			if !s.read {
				out[i].ops += int64(s.ops)
			}
		}
		return nil
	}

	if spec.rate > 0 {
		samples := l.run(rot, n*(cfg.warm+cfg.timed))
		sec := newSection(n*cfg.warm, n*(cfg.warm+cfg.timed))
		for i, ds := range stacks {
			var own []sample
			for _, s := range samples {
				if s.span == spanOf(ds.tgt) {
					own = append(own, s)
				}
			}
			if err := count(i, own); err != nil {
				return fail(err)
			}
			for w := 0; w < sec.n; w++ {
				lo, hi := sec.window(w)
				tally(i, own, lo, hi)
			}
		}
	} else {
		slice := cfg.timed / replayRounds
		for round := -1; round < replayRounds; round++ { // round -1 warms every stack up
			for i, ds := range stacks {
				if round == 0 {
					ds.net.ResetStats()
				}
				samples := l.run(ds.tgt, slice)
				if i == 0 { // the api depth sets the readers' pace for the depths below
					l.readPace = time.Duration(percentile(latencies(samples, 0, slice, true), 0.5) * float64(time.Millisecond))
				}
				if round < 0 {
					continue
				}
				if err := count(i, samples); err != nil {
					return fail(err)
				}
				tally(i, samples, 0, slice)
			}
			l.readPace = 0
		}
	}

	by := map[string]depthResult{}
	for i, ds := range stacks {
		out[i].writeP50 = time.Duration(bestQuartile(p50s[i][0], lower) * float64(time.Millisecond))
		out[i].readP50 = time.Duration(bestQuartile(p50s[i][1], lower) * float64(time.Millisecond))
		out[i].sent, _, out[i].dropped = ds.net.Stats()
		out[i].viewMax = ds.views()
		by[ds.depth] = out[i]
	}
	return by, stopAll()
}

func maxView(rs []*pbft.Replica) uint64 {
	var v uint64
	for _, r := range rs {
		v = max(v, r.View())
	}
	return v
}

const (
	chainSpan = "chain.Sharded.SubmitBatch"
	pbftSpan  = "pbft.Client.SubmitBatch"
)

// spanOf names the call a depth's send wraps.
func spanOf(t target) string {
	switch t := t.(type) {
	case *apiTarget:
		return apiSpan(t.single)
	case chainTarget:
		return chainSpan
	default:
		return pbftSpan
	}
}

// traceServe is the traced run of a served workload: a shorter run of the
// real server for everything readable from outside it, then the same
// traffic replayed at successive depths in this process, then each leaf
// layer on its own.
func traceServe(name string, cfg runCfg) (*report, error) {
	spec := serveSpecs[name]
	r := newReport(name, cfg, true)
	rec := newRecorder(map[string]string{chainSpan: apiSpan(spec.batch == 1), pbftSpan: chainSpan})

	outside := cfg
	outside.timed = cfg.timed / 4
	run, err := measureServe(name, outside, r)
	if run != nil {
		if serr := run.st.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping server: %w", serr)
		}
	}
	if err != nil {
		return nil, err
	}

	// Depth replays, outermost first.
	inside := cfg
	inside.inProcess = true
	inside.timed = cfg.timed * 3 / 8 // per depth
	inside.warm = inside.timed / 10
	by, err := inside.replay(spec, rec)
	if err != nil {
		return nil, err
	}
	apiOn, chainD, pbftD := by["api"], by["chain"], by["pbft"]

	pbftLayer := "pbft"
	if spec.durable {
		pbftLayer = "pbft+wal"
	}
	rows, sumFrac := budget([]budgetRow{
		{Layer: "api", Span: apiSpan(spec.batch == 1), SpanUS: us(apiOn.writeP50)},
		{Layer: "chain+mempool", Span: chainSpan, SpanUS: us(chainD.writeP50)},
		{Layer: pbftLayer, Span: pbftSpan, SpanUS: us(pbftD.writeP50)},
	})
	r.Budget = rows
	r.Samples["budget.api"], r.Samples["budget.chain"], r.Samples["budget.pbft"] = apiOn.writes, chainD.writes, pbftD.writes
	r.set("trace.top_span_ms", ms(apiOn.writeP50))
	r.set("trace.budget_sum_frac", sumFrac)
	r.set("api.http_self_us_per_op", rows[0].SelfUS/float64(spec.batch))
	r.set("chain.self_us_per_op", rows[1].SelfUS/float64(spec.batch))
	r.set("pbft.span_us_per_op", us(pbftD.writeP50)/float64(spec.batch))
	// The traced replay against the untraced run of the real server just
	// made: span recording plus serving from the generator's own process.
	if untraced := r.values["e2e.latency_p50_raw_ms"]; untraced > 0 { // as measured against as measured
		r.set("trace.overhead_frac", (ms(apiOn.writeP50)-untraced)/untraced)
	}
	if math.Abs(sumFrac-1) > 0.15 {
		r.check(check{Name: "budget", Detail: fmt.Sprintf("layer self times sum to %.2f of the top span (allowed 0.85..1.15): %+v", sumFrac, rows)})
	} else {
		r.check(check{Name: "budget", OK: true})
	}
	if spec.readers {
		r.set("api.get_us", us(apiOn.readP50-chainD.readP50))
	}
	if apiOn.ops > 0 {
		r.set("netsim.sent_per_op", float64(apiOn.sent)/float64(apiOn.ops))
	}
	if pbftD.ops > 0 {
		r.set("pbft.msgs_per_op", float64(pbftD.sent)/float64(pbftD.ops))
	}
	dropped := apiOn.dropped + chainD.dropped + pbftD.dropped
	r.set("netsim.dropped", float64(dropped))
	r.set("pbft.view_max", float64(max(apiOn.viewMax, chainD.viewMax, pbftD.viewMax)))
	r.check(checkOf("netsim.dropped", errIf(dropped != 0, "netsim dropped %d messages: the run is invalid", dropped)))
	r.check(checkOf("pbft.view", errIf(r.values["pbft.view_max"] != 0, "a replica left view 0")))

	mean := r.values["mempool.batch_mean_ops"]
	r.check(checkOf("layers", errIf(mean < spec.minBatchMean || (spec.maxBatchMean > 0 && mean > spec.maxBatchMean),
		"mempool.batch_mean_ops is %.1f, the workload needs [%g, %g]", mean, spec.minBatchMean, spec.maxBatchMean)))

	if err := serveLeaves(name, inside, r); err != nil {
		return nil, err
	}
	r.Notes["netsim"] = "zero-delay in-process netsim between the replicas: latency is processor time only"
	r.Notes["budget"] = "each depth replays the same seeded requests with in-flight fixed at C (closed loops: one replay per depth; open loops: one schedule rotating over the depths); a layer's self time is its p50 span minus the next depth's"
	if err := writeTrace(name, cfg, rec, rows); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}
