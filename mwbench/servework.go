package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"maxwarp/internal/report"
	"maxwarp/internal/serve"
)

const (
	// serveQPS is the offered rate: about 40% of what the two-device daemon
	// sustains on a 2-core host (≈10 QPS). At 80% busy the median swung
	// between runs by a factor of two.
	serveQPS = 4.0
	// requestTimeout bounds one request; the daemon's own deadline is 2s,
	// so a request still unanswered after this counts as failed.
	requestTimeout = 10 * time.Second
	// setupReps is how many times a run sets up, reporting the median.
	setupReps = 15
)

// runServe runs serve-mix.
func runServe(ctx context.Context, e *env, values map[string]float64) error {
	d, setup, err := startDaemonMedian(ctx, e)
	if err != nil {
		return err
	}
	defer d.stop()
	values["setup_s"] = setup

	egs, err := buildServeGraphs(values)
	if err != nil {
		return err
	}
	chk := newChecker(egs)
	loop := newOpenLoop(d.url, runtime.NumCPU(), requestTimeout, e.spans)
	defer loop.close()

	// Warm-up: upload each graph form and derive each default source once
	// before timing, as a long-running daemon would have.
	warm := warmupOps(2)
	warmOuts := loop.run(ctx, warm)

	ops := querySchedule(e.seed, serveQPS, time.Duration(e.seconds)*time.Second)
	outs := loop.run(ctx, ops)

	sr := &servedRun{ops: append(warm, ops...), outs: append(warmOuts, outs...), timed: len(warm)}
	sr.end = len(sr.ops)
	if e.trace {
		// Mutation probe: one balanced pair per graph after the load, so
		// the mutation path is timed too.
		probe := mutationProbeOps(egs, e.seed)
		sr.ops = append(sr.ops, probe...)
		sr.outs = append(sr.outs, loop.run(ctx, probe)...)
		if sr.fams, err = serve.ScrapeMetrics(d.url); err != nil {
			return err
		}
	}
	if values["rss_mb"], err = d.peakRSSMB(); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	sr.check(chk, &e.tally)
	sr.endToEnd(values)
	if !e.trace {
		return nil
	}
	values["trace.mean_ms"], values["trace.p95_ms"] = values["mean_ms"], values["p95_ms"]
	sr.serveLayer(values)
	sr.addServerSpans(e.spans)
	return tracedLayers(e, values, egs, nil, true)
}

// startDaemonMedian starts the daemon setupReps times and keeps the last
// one running; it returns the median set-up time in seconds.
func startDaemonMedian(ctx context.Context, e *env) (*daemon, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, err := startDaemon(ctx, e.bin, e.workdir, serveGraphs)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.setup.Seconds())
		if i == setupReps-1 {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// warmupOps queries every item reps times, all due at once.
func warmupOps(reps int) []op {
	var ops []op
	for r := 0; r < reps; r++ {
		for i := range serveItems {
			ops = append(ops, op{item: i, noCache: true})
		}
	}
	return ops
}

// mutationProbeOps returns one balanced pair of mutation batches per served
// graph, leaving every graph with its original edge set.
func mutationProbeOps(egs map[string]*epochGraph, seed uint64) []op {
	var ops []op
	for i, name := range serveGraphNames {
		s := newMutationStream(egs[name].g, egs[name].w, seed*31+uint64(i))
		ops = append(ops,
			op{item: -1, graph: name, batch: s.next()},
			op{item: -1, graph: name, batch: s.closing()})
	}
	chainMutations(ops)
	return ops
}

// servedRun is one session against a daemon: its ops, their outcomes, and
// a /metrics scrape taken at the end (traced runs only).
type servedRun struct {
	ops  []op
	outs []outcome
	// ops[timed:end] are the timed load; earlier ops are warm-up, later
	// ones probes.
	timed, end int
	fams       []report.MetricFamily
	// failed marks ops whose answer was wrong, set by check.
	failed []bool
}

// check mirrors every acknowledged mutation, then verifies every query
// answer against the oracle on its epoch, counting each op in t. Queries
// are checked after all mutations because a query can see an epoch made
// by a mutation that was due after it.
func (sr *servedRun) check(chk *checker, t *tally) {
	sr.failed = make([]bool, len(sr.ops))
	for _, pass := range []bool{true, false} {
		for i := range sr.ops {
			o, res := &sr.ops[i], &sr.outs[i]
			if o.isMutation() != pass {
				continue
			}
			err := res.err
			switch {
			case err != nil:
			case o.isMutation():
				err = chk.mutate(o.graph, o.batch, res.mutate)
			default:
				err = chk.checkQuery(serveItems[o.item], res.query)
			}
			if err != nil {
				err = fmt.Errorf("%s due %v: %w", serveItemName(o), o.due, err)
			}
			sr.failed[i] = err != nil
			t.record(err)
		}
	}
}

// endToEnd reports mean and p95 latency and simulated cycles per device-run
// query over the timed queries. The mean stands in for the median: in this
// mix the median falls among the short BFS and cache-hit latencies, which
// move with every query that waits behind a road query, while the mean is
// mostly the road and PageRank queries' own compute.
func (sr *servedRun) endToEnd(values map[string]float64) {
	var lat []float64
	var cycles, runs float64
	for i := sr.timed; i < sr.end; i++ {
		if sr.ops[i].isMutation() {
			continue
		}
		res := &sr.outs[i]
		if sr.failed[i] {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(res.latency()))
		if res.query.Engine == "gpu" {
			cycles += float64(res.query.Result.SimCycles)
			runs++
		}
	}
	values["mean_ms"] = mean(lat)
	values["p95_ms"] = percentile(lat, 0.95)
	values["sim_cycles"] = cycles / math.Max(runs, 1)
}

// serveLayer reports the serve layer's per-layer metrics from the
// responses and the /metrics scrape.
func (sr *servedRun) serveLayer(values map[string]float64) {
	var queue, overhead, mutMs, invalidated, lag []float64
	exec := make(map[string][]float64)
	queries := 0.0
	type upKey struct {
		dev         int
		graph, algo string
		epoch       int64
	}
	uploads, gpuRuns := make(map[upKey]bool), 0.0
	pagerankRuns := 0.0
	for i := range sr.ops {
		o, res := &sr.ops[i], &sr.outs[i]
		if i >= sr.timed && i < sr.end {
			lag = append(lag, ms(res.sent-res.due))
		}
		if o.isMutation() {
			if res.ok() {
				mutMs = append(mutMs, ms(res.done-res.sent))
				invalidated = append(invalidated, float64(res.mutate.CacheInvalidated))
			}
			continue
		}
		queries++
		if !res.ok() {
			continue
		}
		q := res.query
		overhead = append(overhead, ms(res.done-res.sent)-q.QueueWaitMillis-q.ExecMillis)
		if q.Engine != "gpu" {
			continue
		}
		queue = append(queue, q.QueueWaitMillis)
		it := serveItems[o.item]
		exec[it.name] = append(exec[it.name], q.ExecMillis)
		gpuRuns++
		if it.algo == "pagerank" {
			pagerankRuns++ // PageRank uploads its reverse graph on every run
		} else {
			uploads[upKey{q.Device, it.graph, it.algo, q.Epoch}] = true
		}
	}
	values["serve.queue_wait_ms.p50"] = percentile(queue, 0.50)
	values["serve.queue_wait_ms.p95"] = percentile(queue, 0.95)
	values["serve.overhead_ms.p50"] = percentile(overhead, 0.50)
	values["serve.mutate_ms.p50"] = percentile(mutMs, 0.50)
	values["serve.invalidated_per_mutate"] = mean(invalidated)
	values["load.send_lag_ms.p95"] = percentile(lag, 0.95)
	values["gpualgo.uploads_per_query"] = (float64(len(uploads)) + pagerankRuns) / math.Max(gpuRuns, 1)
	for _, it := range serveItems {
		values["serve.exec_ms."+it.name] = median(exec[it.name])
	}
	values["serve.cache_hit_ratio"] = familySum(sr.fams, "maxwarp_serve_cache_hit_ratio")
	values["serve.shed_ratio"] = familySum(sr.fams, "maxwarp_serve_shed_total") / math.Max(queries, 1)
	values["serve.degraded_ratio"] = familySum(sr.fams, "maxwarp_serve_degraded_total") / math.Max(queries, 1)
}

// addServerSpans records each answered query's server-side phases under
// its request span.
func (sr *servedRun) addServerSpans(spans *spanRecorder) {
	for i := range sr.ops {
		if res := &sr.outs[i]; res.query != nil {
			spans.addServerSpans(res.span, serveItemName(&sr.ops[i]), res.query.QueueWaitMillis, res.query.ExecMillis)
		}
	}
}

func familySum(fams []report.MetricFamily, name string) float64 {
	f := report.FamilyByName(fams, name)
	if f == nil {
		return 0
	}
	sum := 0.0
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum
}

// splitSpecs splits a -graphs flag value into its specs.
func splitSpecs(graphs string) []string {
	var out []string
	for _, s := range strings.Split(graphs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
