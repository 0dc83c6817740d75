package gpualgo

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

func testDevice(t testing.TB) *simt.Device {
	t.Helper()
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxWarpsPerSM = 16
	cfg.MaxBlocksPerSM = 4
	// Catch kernel livelocks in seconds rather than letting a test hang.
	cfg.MaxCycles = 50_000_000
	d, err := simt.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	rmat, err := gengraph.RMAT(9, 8, gengraph.DefaultRMAT, 1)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := gengraph.UniformRandom(400, 3200, 2)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gengraph.Mesh2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gengraph.StarBurst(300, 3, 120, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.CSR{
		"rmat": rmat,
		"uni":  uni,
		"mesh": mesh,
		"star": star,
	}
}

func TestBFSMatchesCPUAllMappings(t *testing.T) {
	for name, g := range testGraphs(t) {
		src := graph.LargestOutComponentSeed(g)
		want := cpualgo.BFSSequential(g, src)
		for _, opts := range []Options{
			{K: 1},
			{K: 2},
			{K: 8},
			{K: 32},
			{K: 8, Dynamic: true},
			{K: 8, Dynamic: true, Chunk: 3},
			{K: 8, DeferThreshold: 16},
			{K: 1, DeferThreshold: 8, Dynamic: true},
			{K: 4, Blocked: true},
			{K: 4, Blocked: true, GridBlocksCap: 2},
		} {
			d := testDevice(t)
			dg := Upload(d, g)
			res, err := BFS(d, dg, src, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !reflect.DeepEqual(res.Levels, want) {
				t.Fatalf("%s %+v: BFS levels differ from CPU oracle", name, opts)
			}
			if !cpualgo.ValidBFSLevels(g, src, res.Levels) {
				t.Fatalf("%s %+v: invalid BFS labeling", name, opts)
			}
			if res.Launches < res.Iterations {
				t.Fatalf("%s %+v: launches %d < iterations %d", name, opts, res.Launches, res.Iterations)
			}
		}
	}
}

func TestBFSDeferredCountsOutliers(t *testing.T) {
	g, err := gengraph.StarBurst(300, 3, 120, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(g)
	d := testDevice(t)
	dg := Upload(d, g)
	res, err := BFS(d, dg, src, Options{K: 4, DeferThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deferred == 0 {
		t.Fatal("no outliers deferred on a hub-heavy graph")
	}
	want := cpualgo.BFSSequential(g, src)
	if !reflect.DeepEqual(res.Levels, want) {
		t.Fatal("deferred BFS wrong")
	}
}

func TestBFSDepthAndStats(t *testing.T) {
	g, err := gengraph.Mesh2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := testDevice(t)
	dg := Upload(d, g)
	res, err := BFS(d, dg, 0, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mesh corner-to-corner distance is (8-1)+(8-1) = 14.
	if res.Depth != 14 {
		t.Fatalf("mesh BFS depth = %d, want 14", res.Depth)
	}
	if res.Stats.Cycles <= 0 || res.Stats.MemTxns <= 0 {
		t.Fatalf("stats not accumulated: %+v", res.Stats)
	}
	if res.TEPS(g.NumEdges(), 1.4) <= 0 {
		t.Fatal("TEPS not positive")
	}
}

func TestBFSErrors(t *testing.T) {
	g, err := gengraph.UniformRandom(32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := testDevice(t)
	dg := Upload(d, g)
	if _, err := BFS(d, dg, -1, Options{K: 1}); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := BFS(d, dg, 32, Options{K: 1}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := BFS(d, dg, 0, Options{K: 3}); err == nil {
		t.Error("non-divisor K accepted")
	}
	if _, err := BFS(d, dg, 0, Options{K: 64}); err == nil {
		t.Error("K beyond warp width accepted")
	}
	if _, err := BFS(d, dg, 0, Options{K: 4, Dynamic: true, Blocked: true}); err == nil {
		t.Error("conflicting schedules accepted")
	}
}

func TestWarpCentricBeatsBaselineOnSkewedGraph(t *testing.T) {
	// The paper's headline claim, at unit-test scale: on a hub-heavy graph,
	// warp-centric (K=32) BFS takes far fewer cycles than thread-per-vertex.
	g, err := gengraph.StarBurst(512, 4, 400, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(g)
	run := func(k int) int64 {
		d := testDevice(t)
		dg := Upload(d, g)
		res, err := BFS(d, dg, src, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	base := run(1)
	warp := run(32)
	if warp*2 >= base {
		t.Fatalf("warp-centric %d cycles vs baseline %d: expected >2x speedup on skewed graph", warp, base)
	}
}

func TestBaselineCompetitiveOnRegularGraph(t *testing.T) {
	// On a regular low-degree mesh, full-warp mapping wastes lanes; the
	// baseline (or small K) should win or at least not lose badly.
	g, err := gengraph.Torus2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(k int) int64 {
		d := testDevice(t)
		dg := Upload(d, g)
		res, err := BFS(d, dg, 0, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	small := run(2)
	full := run(32)
	if small > full {
		t.Fatalf("K=2 (%d cycles) should not lose to K=32 (%d) on a 4-regular torus", small, full)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for name, g := range testGraphs(t) {
		weights := gengraph.EdgeWeights(g, 10, 42)
		src := graph.LargestOutComponentSeed(g)
		want := cpualgo.SSSPDijkstra(g, weights, src)
		for _, opts := range []Options{{K: 1}, {K: 8}, {K: 32, Dynamic: true}} {
			d := testDevice(t)
			dg, err := UploadWeighted(d, g, weights)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SSSP(d, dg, src, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !reflect.DeepEqual(res.Dist, want) {
				t.Fatalf("%s %+v: SSSP distances differ from Dijkstra", name, opts)
			}
		}
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g, err := gengraph.UniformRandom(32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := testDevice(t)
	dg := Upload(d, g)
	if _, err := SSSP(d, dg, 0, Options{K: 1}); err == nil {
		t.Fatal("unweighted SSSP accepted")
	}
	if _, err := UploadWeighted(d, g, []int32{1}); err == nil {
		t.Fatal("mismatched weight count accepted")
	}
}

func TestPageRankMatchesCPU(t *testing.T) {
	for _, name := range []string{"rmat", "uni"} {
		g := testGraphs(t)[name]
		const iters = 15
		want, _ := cpualgo.PageRank(g, cpualgo.PageRankOptions{MaxIters: iters, Tolerance: 1e-30})
		for _, k := range []int{1, 8, 32} {
			d := testDevice(t)
			res, err := PageRank(d, g, PageRankOptions{Options: Options{K: k}, Iterations: iters})
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			if len(res.Ranks) != len(want) {
				t.Fatalf("%s K=%d: rank length", name, k)
			}
			var sum float64
			for v := range want {
				sum += float64(res.Ranks[v])
				if diff := math.Abs(float64(res.Ranks[v]) - want[v]); diff > 1e-3*(want[v]+1e-9)+1e-5 {
					t.Fatalf("%s K=%d: rank[%d] = %g, oracle %g", name, k, v, res.Ranks[v], want[v])
				}
			}
			if math.Abs(sum-1) > 1e-2 {
				t.Fatalf("%s K=%d: ranks sum to %f", name, k, sum)
			}
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	g, err := gengraph.UniformRandom(32, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := testDevice(t)
	if _, err := PageRank(d, g, PageRankOptions{Options: Options{K: 1}, Damping: 1.5}); err == nil {
		t.Fatal("bad damping accepted")
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(d, empty, PageRankOptions{Options: Options{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 0 {
		t.Fatal("empty graph produced ranks")
	}
}

func TestConnectedComponentsMatchesCPU(t *testing.T) {
	for name, g := range testGraphs(t) {
		sym, err := g.Symmetrize()
		if err != nil {
			t.Fatal(err)
		}
		want := cpualgo.ConnectedComponents(sym)
		for _, opts := range []Options{{K: 1}, {K: 16}, {K: 8, Dynamic: true}} {
			d := testDevice(t)
			dg := Upload(d, sym)
			res, err := ConnectedComponents(d, dg, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !reflect.DeepEqual(res.Labels, want) {
				t.Fatalf("%s %+v: CC labels differ from union-find oracle", name, opts)
			}
		}
	}
}

func TestNeighborSumMatchesCPU(t *testing.T) {
	g := testGraphs(t)["rmat"]
	values := make([]int32, g.NumVertices())
	for i := range values {
		values[i] = int32(i%13 + 1)
	}
	want := NeighborSumCPU(g.RowPtr, g.Col, values)
	for _, opts := range []Options{{K: 1}, {K: 4}, {K: 32}, {K: 8, Dynamic: true}} {
		d := testDevice(t)
		dg := Upload(d, g)
		res, err := NeighborSum(d, dg, values, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(res.Sums, want) {
			t.Fatalf("%+v: neighbor sums differ from CPU", opts)
		}
	}
	d := testDevice(t)
	dg := Upload(d, g)
	if _, err := NeighborSum(d, dg, values[:3], Options{K: 1}); err == nil {
		t.Fatal("short values accepted")
	}
}

func TestWarpCentricImprovesCoalescing(t *testing.T) {
	// E10's mechanism at unit scale: transactions per memory op must drop
	// when moving from K=1 to K=32 on a skewed graph.
	g := testGraphs(t)["rmat"]
	values := make([]int32, g.NumVertices())
	run := func(k int) float64 {
		d := testDevice(t)
		dg := Upload(d, g)
		res, err := NeighborSum(d, dg, values, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TxnsPerMemOp()
	}
	base := run(1)
	warp := run(32)
	if warp >= base {
		t.Fatalf("txns/op did not improve: K=1 %.2f vs K=32 %.2f", base, warp)
	}
}

func TestOptionsDefaultsAndGrid(t *testing.T) {
	d := testDevice(t)
	o := Options{}.withDefaults(d)
	if o.K != 1 || o.BlockSize != 128 || o.Chunk < 1 || o.GridBlocksCap < 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	lc := o.grid(d, 0)
	if lc.Blocks < 1 {
		t.Fatalf("empty grid: %+v", lc)
	}
	big := Options{K: 32, BlockSize: 64}.withDefaults(d)
	lc = big.grid(d, 1<<20)
	if lc.Blocks > big.GridBlocksCap {
		t.Fatalf("grid cap not applied: %+v", lc)
	}
}

// TestBlockSizeMustFillWarps checks that a block size that leaves a partial
// warp is rejected: ForEach deals tasks to the partial warp's dead lanes,
// which never run them, so the run would return wrong answers silently.
func TestBlockSizeMustFillWarps(t *testing.T) {
	g := testGraphs(t)["rmat"]
	for _, bs := range []int{16, 48, 100} {
		d := testDevice(t)
		_, err := NewBFSRun(d, Upload(d, g), 0, Options{K: 1, BlockSize: bs})
		if err == nil || !strings.Contains(err.Error(), "multiple of the warp width 32") {
			t.Errorf("BlockSize %d: err = %v, want a warp-width error", bs, err)
		}
	}
	d := testDevice(t)
	if _, err := NewBFSRun(d, Upload(d, g), 0, Options{K: 1, BlockSize: 96}); err != nil {
		t.Errorf("BlockSize 96: %v", err)
	}
}
