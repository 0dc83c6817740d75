package main

import (
	"fmt"
	"time"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/resilient"
	"maxwarp/internal/serve"
	"maxwarp/internal/simt"
)

// replayItem is one query the traced run replays in-process through the
// daemon's call chain: upload, New*Run, resilient.Drive, Result.
type replayItem struct {
	name  string
	algo  string
	k     int
	iters int // PageRank iterations
	g     *graph.CSR
	w     []int32
	src   graph.VertexID
	ans   *answer
}

// timedStepper wraps a run and times every Step: the gap between Drive's
// wall time and the summed Step time is the retry driver's own cost
// (checkpoint save after each step).
type timedStepper struct {
	resilient.Stepper
	spans  *spanRecorder
	parent int
	item   string
	steps  int
	total  time.Duration
}

func (t *timedStepper) Step() (bool, error) {
	t0 := time.Now()
	done, err := t.Stepper.Step()
	d := time.Since(t0)
	t.steps++
	t.total += d
	t.spans.add("replay.step", t.item, t.parent, t0, d)
	return done, err
}

// replayRun is the measurement of one replayed query.
type replayRun struct {
	queryMs  float64 // NewRun + Drive + Result, the part the daemon's exec_ms covers after upload
	driveMs  float64
	stepMs   float64 // summed Step time
	steps    int
	launches int64
	instr    int64
	retries  int
	uploadMs float64 // 0 when the upload was cached
	uploadMB float64
	simStats simt.LaunchStats
}

// replayer holds one simulated device and its upload cache, like one of
// the daemon's device workers.
type replayer struct {
	dev   *simt.Device
	lo    simt.LaunchOpts
	dgs   map[string]*gpualgo.DeviceGraph
	syms  map[*graph.CSR]*graph.CSR
	spans *spanRecorder
}

func newReplayer(cfg simt.Config, lo simt.LaunchOpts, spans *spanRecorder) (*replayer, error) {
	dev, err := simt.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	return &replayer{dev: dev, lo: lo, dgs: make(map[string]*gpualgo.DeviceGraph), syms: make(map[*graph.CSR]*graph.CSR), spans: spans}, nil
}

// serveDeviceConfig is the daemon's device: the default machine on the
// sequential event loop.
func serveDeviceConfig() simt.Config {
	cfg := simt.DefaultConfig()
	cfg.ParallelSMs = 1
	return cfg
}

// serveLaunchOpts is the daemon's per-launch supervision at its default 2s
// deadline and 25e6 cycles/s service clock: a cycle cap plus a
// cancellation hook.
func serveLaunchOpts() simt.LaunchOpts {
	return simt.LaunchOpts{MaxCycles: 50_000_000, OnProgress: func(int64) error { return nil }}
}

// upload returns the device form of the item's graph, uploading it on
// first use as the daemon's worker does per (graph, epoch, variant).
func (r *replayer) upload(it *replayItem, parent int) (*gpualgo.DeviceGraph, float64, float64, error) {
	if it.algo == "pagerank" {
		return nil, 0, 0, nil // NewPageRankRun uploads its reverse graph itself
	}
	key := fmt.Sprintf("%p/%s", it.g, it.algo)
	if dg, ok := r.dgs[key]; ok {
		return dg, 0, 0, nil
	}
	g := it.g
	if it.algo == "cc" {
		if r.syms[g] == nil {
			sym, err := g.Symmetrize()
			if err != nil {
				return nil, 0, 0, err
			}
			r.syms[g] = sym
		}
		g = r.syms[g]
	}
	t0 := time.Now()
	var dg *gpualgo.DeviceGraph
	var err error
	words := len(g.RowPtr) + len(g.Col)
	if it.algo == "sssp" {
		dg, err = gpualgo.UploadWeighted(r.dev, g, it.w)
		words += len(it.w)
	} else {
		dg, err = gpualgo.UploadChecked(r.dev, g)
	}
	d := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	r.spans.add("replay.upload", it.name, parent, t0, d)
	r.dgs[key] = dg
	return dg, ms(d), float64(4*words) / (1 << 20), nil
}

// run replays one query of it and checks its full output against the
// oracle. A wrong answer returns the measurement together with the error.
func (r *replayer) run(it *replayItem) (*replayRun, error) {
	qStart := time.Now()
	qid := r.spans.add("replay.query", it.name, 0, qStart, 0)
	defer func() { r.spans.end(qid, time.Since(qStart)) }()

	dg, upMs, upMB, err := r.upload(it, qid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	opts := gpualgo.Options{K: it.k}
	var run resilient.Stepper
	var result func() error
	var stats func() simt.LaunchStats
	switch it.algo {
	case "bfs":
		br, err := gpualgo.NewBFSRun(r.dev, dg, it.src, opts)
		if err != nil {
			return nil, err
		}
		br.Launch = r.lo
		run = br
		result = func() error { return it.ans.checkLevels(br.Result().Levels) }
		stats = func() simt.LaunchStats { return br.Result().Stats }
	case "sssp":
		sr, err := gpualgo.NewSSSPRun(r.dev, dg, it.src, opts)
		if err != nil {
			return nil, err
		}
		sr.Launch = r.lo
		run = sr
		result = func() error { return it.ans.checkDist(sr.Result().Dist) }
		stats = func() simt.LaunchStats { return sr.Result().Stats }
	case "cc":
		cr, err := gpualgo.NewCCRun(r.dev, dg, opts)
		if err != nil {
			return nil, err
		}
		cr.Launch = r.lo
		run = cr
		result = func() error { return it.ans.checkLabels(cr.Result().Labels) }
		stats = func() simt.LaunchStats { return cr.Result().Stats }
	case "pagerank":
		pr, err := gpualgo.NewPageRankRun(r.dev, it.g, gpualgo.PageRankOptions{Options: opts, Damping: 0.85, Iterations: it.iters})
		if err != nil {
			return nil, err
		}
		pr.Launch = r.lo
		run = pr
		result = func() error { return it.ans.checkRanks(pr.Result().Ranks) }
		stats = func() simt.LaunchStats { return pr.Result().Stats }
	default:
		return nil, fmt.Errorf("mwbench: cannot replay %q", it.algo)
	}

	before, launches0 := r.dev.Totals(), r.dev.LaunchCount()
	dStart := time.Now()
	did := r.spans.add("resilient.drive", it.name, qid, dStart, 0)
	ts := &timedStepper{Stepper: run, spans: r.spans, parent: did, item: it.name}
	out, err := resilient.Drive(resilient.Policy{Launch: r.lo}, ts)
	drive := time.Since(dStart)
	r.spans.end(did, drive)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	after := r.dev.Totals()
	if err := result(); err != nil {
		err = fmt.Errorf("%s replay: %w", it.name, err)
	}
	return &replayRun{
		queryMs:  ms(time.Since(t0)),
		driveMs:  ms(drive),
		stepMs:   ms(ts.total),
		steps:    ts.steps,
		launches: r.dev.LaunchCount() - launches0,
		instr:    after.Instructions - before.Instructions,
		retries:  out.Retries,
		uploadMs: upMs,
		uploadMB: upMB,
		simStats: stats(),
	}, err
}

// layerValues turns an item's replays into its per-layer metrics.
// emptyLaunchUs is the measured cost of one no-op launch.
func layerValues(values map[string]float64, item string, runs []*replayRun, emptyLaunchUs float64) {
	var ckpt, stepMs, nsInstr, share, query []float64
	for _, r := range runs {
		ckpt = append(ckpt, r.driveMs-r.stepMs)
		stepMs = append(stepMs, r.stepMs/float64(r.steps))
		nsInstr = append(nsInstr, r.stepMs*1e6/float64(max(r.instr, 1)))
		share = append(share, float64(r.launches)*emptyLaunchUs/(r.stepMs*1e3))
		query = append(query, r.queryMs)
	}
	last := runs[len(runs)-1]
	st := &last.simStats
	sms := int64(simt.DefaultConfig().NumSMs) // both devices use the default machine
	values["resilient.steps."+item] = float64(last.steps)
	values["resilient.checkpoint_ms."+item] = median(ckpt)
	values["gpualgo.step_ms."+item] = median(stepMs)
	values["gpualgo.launches_per_step."+item] = float64(last.launches) / float64(last.steps)
	values["simt.ns_per_warp_instr."+item] = median(nsInstr)
	values["simt.launch_share."+item] = median(share)
	values["sim.cycles."+item] = float64(st.Cycles)
	values["sim.instructions."+item] = float64(st.Instructions)
	values["sim.stall_ratio."+item] = float64(st.StallCycles) / float64(max(st.Cycles*sms, 1))
	values["sim.full_mask_ratio."+item] = float64(st.FullMaskOps) / float64(max(st.Instructions, 1))
	values["sim.txns_per_memop."+item] = st.TxnsPerMemOp()
	values["sim.useful_util."+item] = st.UsefulUtilization()
	values["sim.smfinish_cv."+item] = st.SMFinishCV()
	values["sim.atomic_serial."+item] = float64(st.AtomicSerial)
	values["replay.query_ms."+item] = median(query)
}

// emptyLaunchUs returns the median wall time in microseconds of a one-block
// no-op launch on the daemon's device, with or without an OnProgress hook.
func emptyLaunchUs(hook bool) (float64, error) {
	dev, err := simt.NewDevice(serveDeviceConfig())
	if err != nil {
		return 0, err
	}
	var lo simt.LaunchOpts
	if hook {
		lo.OnProgress = func(int64) error { return nil }
	}
	lc := simt.Grid1D(32, 32)
	kernel := func(*simt.WarpCtx) {}
	var us []float64
	for i := 0; i < 600; i++ {
		t0 := time.Now()
		if _, err := dev.LaunchWith(lc, lo, kernel); err != nil {
			return 0, err
		}
		if i >= 100 { // the first launches fill the warp pool
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us), nil
}

// graphProbes times the graph layer's per-epoch work on the workload's own
// graphs: symmetrizing (CC's view), finding the default source, and
// applying plus compacting one balanced mutation batch. Each value is the
// mean over graphs of a median of three.
func graphProbes(values map[string]float64, graphs []*epochGraph, seed uint64) error {
	var sym, src, compact []float64
	for i, eg := range graphs {
		t, err := medianTime(3, func() error { _, err := eg.g.Symmetrize(); return err })
		if err != nil {
			return err
		}
		sym = append(sym, t)
		t, _ = medianTime(3, func() error { graph.LargestOutComponentSeed(eg.g); return nil })
		src = append(src, t)
		dl, err := graph.NewDelta(eg.g, eg.w)
		if err != nil {
			return err
		}
		stream := newMutationStream(eg.g, eg.w, seed+uint64(i))
		t, err = medianTime(3, func() error {
			if _, _, err := dl.Apply(stream.next()); err != nil {
				return err
			}
			_, _, err := dl.Compact()
			return err
		})
		if err != nil {
			return err
		}
		compact = append(compact, t)
	}
	values["graph.sym_ms"] = mean(sym)
	values["graph.source_ms"] = mean(src)
	values["graph.compact_ms"] = mean(compact)
	return nil
}

// buildServeGraphs times serve.LoadGraphs per served graph (median of
// three) and returns epoch 0 of each.
func buildServeGraphs(values map[string]float64) (map[string]*epochGraph, error) {
	out := make(map[string]*epochGraph)
	for _, arg := range splitSpecs(serveGraphs) {
		spec, err := serve.ParseGraphSpec(arg)
		if err != nil {
			return nil, err
		}
		var reg *serve.Registry
		t, err := medianTime(3, func() error {
			var err error
			reg, err = serve.LoadGraphs([]serve.GraphSpec{spec})
			return err
		})
		if err != nil {
			return nil, err
		}
		values["graph.build_ms."+spec.Name] = t
		ng, _ := reg.Get(spec.Name)
		out[spec.Name] = newEpochGraph(ng.G, ng.Weights)
	}
	return out, nil
}
