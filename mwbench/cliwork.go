package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/serve"
	"maxwarp/internal/simt"
)

const (
	// cliScale is log2 |V| of the cli-rmat graph (LiveJournal-like).
	cliScale = 14
	// cliPageRankIters is the PageRank probe's iteration count.
	cliPageRankIters = 5
)

// cliProbe is one run of the CLI's call chain in a cli-rmat pass.
type cliProbe struct {
	name, algo string
	k          int
}

// cliProbes cover the masked path (BFS K=1), the full-mask gather path
// (BFS K=32) and the vectorized float path (PageRank).
var cliProbes = []cliProbe{
	{"bfs-k32", "bfs", 32},
	{"bfs-k1", "bfs", 1},
	{"pagerank-k32", "pagerank", 32},
}

// cliDeviceConfig is `maxwarp algo -parallel 2`: two host goroutines drive
// the SMs under the default fifo block schedule. Two is this host's nproc;
// more slots than cores would measure the Go scheduler.
func cliDeviceConfig() simt.Config {
	cfg := simt.DefaultConfig()
	cfg.ParallelSMs = 2
	return cfg
}

// cliGraph is the cli-rmat input: the graph, its BFS source (as `maxwarp
// algo` picks it), and the oracle's answers.
type cliGraph struct {
	g       *graph.CSR
	src     graph.VertexID
	answers map[string]*answer // by algo
}

// cliGraphSeed derives the generator seed of the cli-rmat graph from the
// run's seed.
func cliGraphSeed(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 1 }

// buildCLIGraph generates the cli-rmat graph for a seed.
func buildCLIGraph(seed uint64) (*graph.CSR, error) {
	p, err := gengraph.PresetByName("LiveJournal-like")
	if err != nil {
		return nil, err
	}
	return p.Build(cliScale, seed)
}

func newCLIGraph(g *graph.CSR) (*cliGraph, error) {
	cg := &cliGraph{g: g, src: graph.LargestOutComponentSeed(g), answers: make(map[string]*answer)}
	for _, algo := range []string{"bfs", "pagerank"} {
		a, err := oracle(algo, g, nil, cg.src, cliPageRankIters)
		if err != nil {
			return nil, err
		}
		cg.answers[algo] = a
	}
	return cg, nil
}

// runProbe runs one probe as `maxwarp algo` does: a fresh device, an
// upload, the algorithm to completion. It returns the wall time, the
// simulated cycles, and a check to run outside the timed region.
func (cg *cliGraph) runProbe(p cliProbe) (time.Duration, int64, func() error, error) {
	t0 := time.Now()
	dev, err := simt.NewDevice(cliDeviceConfig())
	if err != nil {
		return 0, 0, nil, err
	}
	opts := gpualgo.Options{K: p.k}
	a := cg.answers[p.algo]
	switch p.algo {
	case "bfs":
		res, err := gpualgo.BFS(dev, gpualgo.Upload(dev, cg.g), cg.src, opts)
		if err != nil {
			return 0, 0, nil, err
		}
		return time.Since(t0), res.Stats.Cycles, func() error { return a.checkLevels(res.Levels) }, nil
	case "pagerank":
		res, err := gpualgo.PageRank(dev, cg.g, gpualgo.PageRankOptions{Options: opts, Iterations: cliPageRankIters})
		if err != nil {
			return 0, 0, nil, err
		}
		return time.Since(t0), res.Stats.Cycles, func() error { return a.checkRanks(res.Ranks) }, nil
	}
	return 0, 0, nil, fmt.Errorf("mwbench: unknown cli probe %q", p.algo)
}

// runCLI runs cli-rmat: repeated passes over the probe set for the run's
// duration. One pass is one operation: mean_ms is the mean pass.
func runCLI(ctx context.Context, e *env, values map[string]float64) error {
	gseed := cliGraphSeed(e.seed)
	var setups, builds []float64
	var g *graph.CSR
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if g, err = buildCLIGraph(gseed); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		if _, err := simt.NewDevice(cliDeviceConfig()); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	values["setup_s"] = median(setups)
	values["graph.build_ms.lj"] = median(builds)
	cg, err := newCLIGraph(g)
	if err != nil {
		return err
	}

	var passes []float64
	var passCycles int64 = -1
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		// Each pass starts from a collected heap, as one CLI invocation
		// starts from a fresh process.
		runtime.GC()
		passStart := time.Now()
		pid := e.spans.add("cli.pass", "", 0, passStart, 0)
		var took time.Duration
		var cycles int64
		failed := false
		for _, p := range cliProbes {
			d, c, check, err := cg.runProbe(p)
			if err == nil {
				e.spans.add("cli.run", p.name, pid, time.Now().Add(-d), d)
				err = check()
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", p.name, err)
			}
			e.tally.record(err)
			failed = failed || err != nil
			took += d
			cycles += c
		}
		e.spans.end(pid, time.Since(passStart))
		if !failed && passCycles >= 0 && cycles != passCycles {
			e.tally.record(fmt.Errorf("pass simulated %d cycles, the first pass %d", cycles, passCycles))
			failed = true
		}
		if failed {
			passes = append(passes, math.Inf(1))
			continue
		}
		passCycles = cycles
		passes = append(passes, ms(took))
	}
	values["mean_ms"] = mean(passes)
	values["p95_ms"] = percentile(passes, 0.95)
	values["sim_cycles"] = float64(passCycles)
	if values["rss_mb"], err = peakRSSMB("self"); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}
	values["trace.mean_ms"], values["trace.p95_ms"] = values["mean_ms"], values["p95_ms"]
	egs, err := servedProbe(ctx, e, values)
	if err != nil {
		return err
	}
	values["gpualgo.uploads_per_query"] = 1 // every CLI run uploads its graph once
	return tracedLayers(e, values, egs, cg, false)
}

// servedProbe gives cli-rmat's traced run its serve-layer metrics: a short
// session against a fresh daemon with every op due at once (each serve
// item three times uncached, twice cacheable, then a balanced mutation pair
// per graph). Its send lag is the wait for one of the nproc connections.
func servedProbe(ctx context.Context, e *env, values map[string]float64) (map[string]*epochGraph, error) {
	d, err := startDaemon(ctx, e.bin, e.workdir, serveGraphs)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	egs, err := buildServeGraphs(values)
	if err != nil {
		return nil, err
	}
	loop := newOpenLoop(d.url, runtime.NumCPU(), requestTimeout, e.spans)
	defer loop.close()
	ops := warmupOps(3)
	for r := 0; r < 2; r++ {
		for i := range serveItems {
			ops = append(ops, op{item: i})
		}
	}
	ops = append(ops, mutationProbeOps(egs, e.seed)...)
	chainMutations(ops)
	sr := &servedRun{ops: ops, outs: loop.run(ctx, ops), end: len(ops)}
	if sr.fams, err = serve.ScrapeMetrics(d.url); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	sr.check(newChecker(egs), &e.tally)
	sr.serveLayer(values)
	sr.addServerSpans(e.spans)
	return egs, nil
}
