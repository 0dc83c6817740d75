package bench

import (
	"fmt"
	"math"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/report"
)

// E13IrregularKernels extends E8 with the harder irregular kernels built on
// the full vwarp phase vocabulary (GroupLoop + SIMD + per-lane binary
// search): triangle counting, k-core peeling, and deterministic-Luby MIS.
// Expected shape: the warp-centric mapping wins on the skewed workload for
// all three; triangle counting gains the most (its inner intersection is the
// most imbalance-prone loop in the suite).
func E13IrregularKernels(cfg Config) ([]*report.Table, error) {
	cfg = cfg.WithDefaults()
	ws, err := buildWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	picks := []workload{ws[0], ws[len(ws)-1]}
	fullK := cfg.Device.WarpWidth
	t := &report.Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Additional irregular kernels: K=%d vs baseline", fullK),
		Columns: []string{"graph", "kernel", "baseline Mcycles", "warp-centric Mcycles", "speedup", "result"},
		Notes:   []string{"result: triangles = count, kcore = |2-core|, mis = set size, coloring = palette, bc = max score (2 sources)"},
	}
	t.ChartSpec = &report.ChartSpec{GroupCol: 0, BarCol: 1, ValueCol: 4, Unit: "speedup x"}
	for _, w := range picks {
		sym, err := w.g.Symmetrize()
		if err != nil {
			return nil, err
		}
		in := gpualgo.Input{G: sym, BCSources: []graph.VertexID{0, graph.VertexID(sym.NumVertices() / 2)}, CoreK: 2, Seed: cfg.Seed}
		for _, kernel := range []string{"triangles", "kcore", "mis", "coloring", "bc"} {
			a := gpualgo.Lookup(kernel)
			run := func(k int) (gpualgo.Output, error) {
				d, err := newDevice(cfg)
				if err != nil {
					return gpualgo.Output{}, err
				}
				return a.Run(d, in, gpualgo.Options{K: k, BlockSize: cfg.BlockSize})
			}
			base, err := run(1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s baseline: %w", w.name, kernel, err)
			}
			warp, err := run(fullK)
			if err != nil {
				return nil, fmt.Errorf("%s/%s warp-centric: %w", w.name, kernel, err)
			}
			// The two mappings must agree as the entry's comparator defines
			// it: counts exactly, BC scores within tolerance, colorings valid.
			if err := a.Compare(in, warp.Value, base.Value); err != nil {
				return nil, fmt.Errorf("bench: %s/%s results diverge between mappings: %w", w.name, kernel, err)
			}
			t.AddRow(w.name, kernel,
				report.F(float64(base.Stats.Cycles)/1e6, 3),
				report.F(float64(warp.Stats.Cycles)/1e6, 3),
				report.F(float64(base.Stats.Cycles)/float64(warp.Stats.Cycles), 2)+"x",
				e13Result(warp))
		}
	}
	return []*report.Table{t}, nil
}

// e13Result is the table's result column: the count, or the palette size
// and the top score where the answer is a vector.
func e13Result(o gpualgo.Output) string {
	switch r := o.Result.(type) {
	case *gpualgo.ColoringResult:
		return report.I(int64(r.NumColors))
	case *gpualgo.BCResult:
		var top float64
		for _, s := range r.Scores {
			top = math.Max(top, float64(s))
		}
		return report.F(top, 0)
	}
	return report.I(o.Value.(int64))
}
