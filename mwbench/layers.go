package main

import (
	"fmt"
	"math"
	"time"

	"maxwarp/internal/simt"
)

// replayReps is how often the traced run replays each item.
const replayReps = 2

// tracedLayers fills the per-layer metrics below the serve layer. It
// replays every item in-process, replayReps times each, through the call
// chain its workload uses: the serve items on one daemon-like device (epoch
// 0 of the served graphs, per-launch supervision on), the cli items on a
// fresh CLI device per query. cg is built here when the workload has none.
// ownServe selects the workload's own items and graphs for the item-less
// gpualgo and graph metrics.
func tracedLayers(e *env, values map[string]float64, egs map[string]*epochGraph, cg *cliGraph, ownServe bool) error {
	if cg == nil {
		t0 := time.Now()
		g, err := buildCLIGraph(cliGraphSeed(e.seed))
		if err != nil {
			return err
		}
		values["graph.build_ms.lj"] = ms(time.Since(t0))
		if cg, err = newCLIGraph(g); err != nil {
			return err
		}
	}
	var err error
	if values["simt.empty_launch_us"], err = emptyLaunchUs(false); err != nil {
		return err
	}
	if values["simt.empty_launch_hook_us"], err = emptyLaunchUs(true); err != nil {
		return err
	}

	var serveReplay []*replayItem
	for _, it := range serveItems {
		eg := egs[it.graph]
		a, err := oracle(it.algo, eg.g, eg.w, eg.src, pageRankIters)
		if err != nil {
			return err
		}
		serveReplay = append(serveReplay, &replayItem{name: it.name, algo: it.algo, k: 32, iters: pageRankIters, g: eg.g, w: eg.w, src: eg.src, ans: a})
	}
	var cliReplay []*replayItem
	for _, p := range cliProbes {
		cliReplay = append(cliReplay, &replayItem{name: p.name, algo: p.algo, k: p.k, iters: cliPageRankIters, g: cg.g, src: cg.src, ans: cg.answers[p.algo]})
	}

	runs := make(map[string][]*replayRun)
	rp, err := newReplayer(serveDeviceConfig(), serveLaunchOpts(), e.spans)
	if err != nil {
		return err
	}
	for r := 0; r < replayReps; r++ {
		for _, it := range serveReplay {
			if err := replayOnce(e, rp, it, runs); err != nil {
				return err
			}
		}
		for _, it := range cliReplay {
			crp, err := newReplayer(cliDeviceConfig(), simt.LaunchOpts{}, e.spans)
			if err != nil {
				return err
			}
			if err := replayOnce(e, crp, it, runs); err != nil {
				return err
			}
		}
	}

	retries, queries := 0, 0
	for _, it := range serveReplay {
		layerValues(values, it.name, runs[it.name], values["simt.empty_launch_hook_us"])
	}
	for _, it := range cliReplay {
		layerValues(values, it.name, runs[it.name], values["simt.empty_launch_us"])
	}
	for _, rs := range runs {
		for _, r := range rs {
			retries += r.retries
			queries++
		}
	}
	values["resilient.retries_per_query"] = float64(retries) / float64(queries)

	own, ownGraphs := cliReplay, []*epochGraph{{g: cg.g, src: cg.src}}
	if ownServe {
		own, ownGraphs = serveReplay, []*epochGraph{egs["wiki"], egs["road"]}
	}
	var upMs, upMB []float64
	for _, it := range own {
		for _, r := range runs[it.name] {
			if r.uploadMs > 0 {
				upMs = append(upMs, r.uploadMs)
				upMB = append(upMB, r.uploadMB)
			}
		}
	}
	values["gpualgo.upload_ms"] = mean(upMs)
	values["gpualgo.upload_mb"] = mean(upMB)

	// The replay is checked against the daemon: one replayed query should
	// take about what the daemon's median exec_ms says.
	dev := 0.0
	for _, it := range serveItems {
		replay, exec := values["replay.query_ms."+it.name], values["serve.exec_ms."+it.name]
		d := replay/exec - 1
		verdict := "ok"
		if math.Abs(d) > 0.25 {
			verdict = "outside 25%"
		}
		fmt.Printf("replay check %-14s replay %8.2f ms  daemon exec_ms %8.2f ms  %+6.1f%% %s\n", it.name, replay, exec, 100*d, verdict)
		dev = math.Max(dev, math.Abs(d))
	}
	values["trace.replay_exec_dev"] = dev
	return graphProbes(values, ownGraphs, e.seed)
}

// replayOnce replays it on rp, counting the answer's check as one op.
func replayOnce(e *env, rp *replayer, it *replayItem, runs map[string][]*replayRun) error {
	r, err := rp.run(it)
	if r == nil {
		return err
	}
	e.tally.record(err)
	runs[it.name] = append(runs[it.name], r)
	return nil
}
