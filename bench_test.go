// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index). Each BenchmarkE* target runs the
// corresponding harness experiment; kernel-level benchmarks below them
// expose the headline contrast directly with simulated-cycle metrics.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE4 -benchtime=1x
// Bigger inputs:    MAXWARP_BENCH_SCALE=12 go test -bench=. -benchtime=1x
package maxwarp_test

import (
	"os"
	"strconv"
	"testing"

	"maxwarp"
	"maxwarp/internal/bench"
	"maxwarp/internal/cpualgo"
)

func benchScale() int {
	if s := os.Getenv("MAXWARP_BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 6 {
			return v
		}
	}
	return 9
}

func benchConfig() bench.Config {
	return bench.Config{Scale: benchScale(), Seed: 42}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1GraphGen regenerates Table E1 (graph instances & statistics).
func BenchmarkE1GraphGen(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2DegreeHistogram regenerates the degree-distribution figure.
func BenchmarkE2DegreeHistogram(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3BaselineVsCPU regenerates the GPU-baseline-vs-CPU comparison.
func BenchmarkE3BaselineVsCPU(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4WarpSizeSweep regenerates the headline warp-width speedup figure.
func BenchmarkE4WarpSizeSweep(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5UtilImbalance regenerates the utilization/imbalance trade-off figure.
func BenchmarkE5UtilImbalance(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6DeferOutliers regenerates the outlier-deferral figure.
func BenchmarkE6DeferOutliers(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7DynamicWorkload regenerates the dynamic-distribution figure.
func BenchmarkE7DynamicWorkload(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8OtherApps regenerates the other-applications table.
func BenchmarkE8OtherApps(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9Scaling regenerates the size-scaling figure.
func BenchmarkE9Scaling(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Coalescing regenerates the coalescing analysis.
func BenchmarkE10Coalescing(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11SpMV regenerates the scalar-vs-vector CSR SpMV comparison.
func BenchmarkE11SpMV(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12QuadraticVsFrontier regenerates the BFS-formulation comparison.
func BenchmarkE12QuadraticVsFrontier(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13IrregularKernels regenerates the extra-kernels table.
func BenchmarkE13IrregularKernels(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14DirectionOptimizing regenerates the push/pull/hybrid table.
func BenchmarkE14DirectionOptimizing(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15DegreeSortRelabel regenerates the relabeling comparison.
func BenchmarkE15DegreeSortRelabel(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkE16DeltaStepping regenerates the SSSP-formulation comparison.
func BenchmarkE16DeltaStepping(b *testing.B) { runExperiment(b, "E16") }

// BenchmarkE17MSBFS regenerates the multi-source-BFS batching comparison.
func BenchmarkE17MSBFS(b *testing.B) { runExperiment(b, "E17") }

// BenchmarkE18SCC regenerates the SCC decomposition comparison.
func BenchmarkE18SCC(b *testing.B) { runExperiment(b, "E18") }

// BenchmarkA1ResidencySweep runs the latency-hiding ablation.
func BenchmarkA1ResidencySweep(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkA2SegmentSweep runs the coalescing-granularity ablation.
func BenchmarkA2SegmentSweep(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkA3CacheAblation runs the read-only-cache ablation.
func BenchmarkA3CacheAblation(b *testing.B) { runExperiment(b, "A3") }

// BenchmarkA4SchedulerPolicy runs the warp-scheduler ablation.
func BenchmarkA4SchedulerPolicy(b *testing.B) { runExperiment(b, "A4") }

// --- kernel-level benchmarks: the headline contrast, directly -------------

func benchBFS(b *testing.B, k int, dynamic bool, deferTh int32) {
	g, err := maxwarp.RMAT(benchScale(), 16, maxwarp.DefaultRMATParams, 42)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	var edges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
		if err != nil {
			b.Fatal(err)
		}
		dg, err := maxwarp.UploadGraph(dev, g)
		if err != nil {
			b.Fatal(err)
		}
		res, err := maxwarp.BFS(dev, dg, 0, maxwarp.Options{
			K: k, Dynamic: dynamic, DeferThreshold: deferTh,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
		edges += int64(g.NumEdges())
	}
	b.ReportMetric(float64(cycles)/float64(b.N)/1e6, "Mcycles/op")
	b.ReportMetric(float64(edges)/(float64(cycles)/(1.4*1e9))/1e6, "simMTEPS")
}

// BenchmarkBFSBaseline is thread-per-vertex BFS on a skewed RMAT graph.
func BenchmarkBFSBaseline(b *testing.B) { benchBFS(b, 1, false, 0) }

// BenchmarkBFSWarpCentric is the paper's K=32 mapping on the same graph.
func BenchmarkBFSWarpCentric(b *testing.B) { benchBFS(b, 32, false, 0) }

// BenchmarkBFSWarpCentricDynamic adds dynamic workload distribution.
func BenchmarkBFSWarpCentricDynamic(b *testing.B) { benchBFS(b, 32, true, 0) }

// BenchmarkBFSWarpCentricDefer adds outlier deferral (threshold 64).
func BenchmarkBFSWarpCentricDefer(b *testing.B) { benchBFS(b, 8, false, 64) }

// BenchmarkCPUBFSSequential measures the host-side oracle for scale context.
func BenchmarkCPUBFSSequential(b *testing.B) {
	g, err := maxwarp.RMAT(benchScale(), 16, maxwarp.DefaultRMATParams, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpualgo.BFSSequential(g, 0)
	}
}

// BenchmarkCPUBFSParallel measures the multicore host BFS.
func BenchmarkCPUBFSParallel(b *testing.B) {
	g, err := maxwarp.RMAT(benchScale(), 16, maxwarp.DefaultRMATParams, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpualgo.BFSParallel(g, 0, 0)
	}
}

// BenchmarkGraphGenRMAT measures generator throughput.
func BenchmarkGraphGenRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := maxwarp.RMAT(benchScale(), 16, maxwarp.DefaultRMATParams, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
