package bench

import (
	"fmt"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/report"
)

// E8OtherApps reproduces the "other applications" table: the virtual
// warp-centric method applied beyond BFS — SSSP (Bellman-Ford), PageRank,
// connected components, and the neighbor-sum gather microkernel — reported
// as speedup of K=warp-width over the thread-per-vertex baseline on a skewed
// and a regular workload.
func E8OtherApps(cfg Config) ([]*report.Table, error) {
	cfg = cfg.WithDefaults()
	ws, err := buildWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	// Two representative regimes keep the table affordable: the most skewed
	// and the most regular workload of the suite.
	picks := []workload{ws[0], ws[len(ws)-1]}
	fullK := cfg.Device.WarpWidth

	t := &report.Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Other applications: speedup of warp-centric (K=%d) over baseline (K=1)", fullK),
		Columns: []string{"graph", "app", "baseline Mcycles", "warp-centric Mcycles", "speedup", "iterations"},
	}
	t.ChartSpec = &report.ChartSpec{GroupCol: 0, BarCol: 1, ValueCol: 4, Unit: "speedup x"}

	runApp := func(w workload, app string, k int) (gpualgo.Output, error) {
		d, err := newDevice(cfg)
		if err != nil {
			return gpualgo.Output{}, err
		}
		a := gpualgo.Lookup(app)
		g, err := a.Graph(w.g)
		if err != nil {
			return gpualgo.Output{}, err
		}
		in := gpualgo.Input{G: g, Weights: gengraph.EdgeWeights(w.g, 16, cfg.Seed), Src: w.src, Iterations: 5}
		return a.Run(d, in, gpualgo.Options{K: k, BlockSize: cfg.BlockSize})
	}

	for _, w := range picks {
		for _, app := range []string{"bfs", "sssp", "pagerank", "cc", "nbrsum"} {
			base, err := runApp(w, app, 1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s baseline: %w", w.name, app, err)
			}
			warp, err := runApp(w, app, fullK)
			if err != nil {
				return nil, fmt.Errorf("%s/%s warp-centric: %w", w.name, app, err)
			}
			t.AddRow(w.name, app,
				report.F(float64(base.Stats.Cycles)/1e6, 2),
				report.F(float64(warp.Stats.Cycles)/1e6, 2),
				report.F(float64(base.Stats.Cycles)/float64(warp.Stats.Cycles), 2)+"x",
				report.I(int64(warp.Rounds)))
		}
	}
	return []*report.Table{t}, nil
}
