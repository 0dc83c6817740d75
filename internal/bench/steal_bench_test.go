package bench

import (
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// BenchmarkRMATBFSBlockSchedule is the headline wall-clock benchmark for the
// host-level block distributor: thread-per-vertex BFS (K=1, the maximally
// imbalanced mapping) on a scale-15 RMAT graph, at ParallelSMs=8, under each
// block schedule. RMAT's power-law degrees make early blocks systematically
// heavier, so the eager FIFO distributor strands host goroutines while the
// depth-limited stealing distributor keeps them fed. Both schedules are
// deterministic per the stealing contract (internal/simt/steal_test.go);
// the recorded fifo/steal ratio lives in EXPERIMENTS.md.
func BenchmarkRMATBFSBlockSchedule(b *testing.B) {
	g, err := gengraph.RMAT(15, 16, gengraph.RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}, 7)
	if err != nil {
		b.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(g)
	for _, sched := range []string{"fifo", "steal"} {
		b.Run(sched, func(b *testing.B) {
			cfg := simt.DefaultConfig()
			cfg.ParallelSMs = 8
			cfg.BlockSchedule = sched
			d := simt.MustNewDevice(cfg)
			dg := gpualgo.Upload(d, g)
			opts := gpualgo.Options{K: 1, BlockSize: 128}
			if _, err := gpualgo.BFS(d, dg, src, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := gpualgo.BFS(d, dg, src, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.SequentialFallback != "" {
					b.Fatalf("fell back to sequential: %s", res.Stats.SequentialFallback)
				}
			}
		})
	}
}
