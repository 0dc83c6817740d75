package bench

import (
	"fmt"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/report"
)

// E6DeferOutliers reproduces the deferring-outliers figure: BFS cycles as
// the deferral threshold sweeps from off to aggressive, on the skewed
// workloads where outliers exist, and the same sweep for SSSP, CC and
// PageRank, the kernels the paper generalizes to. Expected shape: deferral
// trims the straggler tail on hub-heavy graphs (modest cycle reduction,
// imbalance CV drop) and is a no-op on regular graphs.
func E6DeferOutliers(cfg Config) ([]*report.Table, error) {
	cfg = cfg.WithDefaults()
	ws, err := buildWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	thresholds := []int32{0, 16, 32, 64, 128}
	t := &report.Table{
		ID:      "E6",
		Title:   "Deferring outliers: cost vs deferral threshold (K=4 main pass, full-warp deferred pass)",
		Columns: []string{"graph", "app", "threshold", "Mcycles", "speedup vs off", "deferred vertices", "imbalance CV"},
		Notes:   []string{"threshold 0 disables deferral (the paper's base warp-centric kernel)"},
	}
	const mainK = 4
	for _, w := range ws {
		for _, app := range []string{"bfs", "sssp", "cc", "pagerank"} {
			a := gpualgo.Lookup(app)
			g, err := a.Graph(w.g)
			if err != nil {
				return nil, err
			}
			in := gpualgo.Input{G: g, Weights: gengraph.EdgeWeights(g, 16, cfg.Seed), Src: w.src, Iterations: 5}
			var off int64
			for _, th := range thresholds {
				d, err := newDevice(cfg)
				if err != nil {
					return nil, err
				}
				out, err := a.Run(d, in, gpualgo.Options{K: mainK, DeferThreshold: th, BlockSize: cfg.BlockSize})
				if err != nil {
					return nil, fmt.Errorf("%s/%s threshold %d: %w", w.name, app, th, err)
				}
				label := report.I(int64(th))
				if th == 0 {
					off = out.Stats.Cycles
					label = "off"
				}
				t.AddRow(w.name, app, label,
					report.F(float64(out.Stats.Cycles)/1e6, 2),
					report.F(float64(off)/float64(out.Stats.Cycles), 2)+"x",
					report.I(int64(out.Deferred)),
					report.F(out.Stats.WarpImbalanceCV(), 3))
			}
		}
	}
	return []*report.Table{t}, nil
}

// E7DynamicWorkload reproduces the dynamic-workload-distribution figure:
// static scheduling (both the stride variant and the paper-era blocked
// variant) vs warps claiming chunks from a global counter, across chunk
// sizes. Expected shape: dynamic fetch beats the *blocked* static baseline
// (the comparison the paper made) where per-task cost varies; against the
// stronger stride baseline it only reduces the imbalance CV, paying fetch
// overhead (see EXPERIMENTS.md deviation 1).
func E7DynamicWorkload(cfg Config) ([]*report.Table, error) {
	cfg = cfg.WithDefaults()
	ws, err := buildWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	chunks := []int32{1, 4, 16, 64}
	// A small grid makes each virtual warp process several tasks — the
	// regime where the schedule choice matters at all (with one task per
	// virtual warp, all schedules coincide).
	const gridCap = 8
	t := &report.Table{
		ID:      "E7",
		Title:   "Dynamic workload distribution: BFS cost vs fetch chunk size (K=4)",
		Columns: []string{"graph", "schedule", "Mcycles", "speedup vs static", "imbalance CV", "atomic serializations"},
	}
	const mainK = 4
	for _, w := range ws {
		d, err := newDevice(cfg)
		if err != nil {
			return nil, err
		}
		dg := gpualgo.Upload(d, w.g)
		static, err := gpualgo.BFS(d, dg, w.src, gpualgo.Options{K: mainK, BlockSize: cfg.BlockSize, GridBlocksCap: gridCap})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.name, "static-stride",
			report.F(float64(static.Stats.Cycles)/1e6, 2), "1.00x",
			report.F(static.Stats.WarpImbalanceCV(), 3),
			report.I(static.Stats.AtomicSerial))
		dBlocked, err := newDevice(cfg)
		if err != nil {
			return nil, err
		}
		dgBlocked := gpualgo.Upload(dBlocked, w.g)
		blocked, err := gpualgo.BFS(dBlocked, dgBlocked, w.src, gpualgo.Options{
			K: mainK, Blocked: true, BlockSize: cfg.BlockSize, GridBlocksCap: gridCap,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.name, "static-blocked",
			report.F(float64(blocked.Stats.Cycles)/1e6, 2),
			report.F(float64(static.Stats.Cycles)/float64(blocked.Stats.Cycles), 2)+"x",
			report.F(blocked.Stats.WarpImbalanceCV(), 3),
			report.I(blocked.Stats.AtomicSerial))
		for _, chunk := range chunks {
			d, err := newDevice(cfg)
			if err != nil {
				return nil, err
			}
			dg := gpualgo.Upload(d, w.g)
			res, err := gpualgo.BFS(d, dg, w.src, gpualgo.Options{
				K: mainK, Dynamic: true, Chunk: chunk, BlockSize: cfg.BlockSize, GridBlocksCap: gridCap,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(w.name, fmt.Sprintf("dynamic/%d", chunk),
				report.F(float64(res.Stats.Cycles)/1e6, 2),
				report.F(float64(static.Stats.Cycles)/float64(res.Stats.Cycles), 2)+"x",
				report.F(res.Stats.WarpImbalanceCV(), 3),
				report.I(res.Stats.AtomicSerial))
		}
	}
	return []*report.Table{t}, nil
}
