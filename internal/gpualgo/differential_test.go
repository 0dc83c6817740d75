package gpualgo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/sanitize"
	"maxwarp/internal/simt"
)

// The differential harness: every kernel variant runs against its cpualgo
// oracle on seeded graphs from the paper's three degree regimes, under both
// host execution modes (ParallelSMs=1 sequential, 0=one goroutine per CPU).
// Each run also attaches an obs.Metrics registry, asserting that metrics
// never force the sequential fallback and that the counter totals are
// bit-identical across host modes.
//
// Every entry of the algorithm table is enrolled with its own oracle and
// comparator; new mapping variants are enrolled by appending to
// diffVariants.

// diffVariant is one kernel mapping configuration.
type diffVariant struct {
	name string
	opts Options
	// quick marks the variants kept under -short.
	quick bool
}

// diffVariants is the mapping sweep: the thread-per-vertex baseline, the
// warp-centric widths K∈{2..32}, and the paper's refinements (outlier
// deferral, dynamic distribution, blocked schedule). The blocked variant
// caps the grid at two blocks (64 virtual warps at K=4), so each virtual
// warp owns a range of several tasks; with one task per virtual warp every
// static schedule deals alike.
func diffVariants() []diffVariant {
	var vs []diffVariant
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		vs = append(vs, diffVariant{
			name:  fmt.Sprintf("K%d", k),
			opts:  Options{K: k},
			quick: k == 1 || k == 32,
		})
	}
	vs = append(vs,
		diffVariant{name: "K8+defer", opts: Options{K: 8, DeferThreshold: 16}, quick: true},
		diffVariant{name: "K8+dynamic", opts: Options{K: 8, Dynamic: true}, quick: true},
		diffVariant{name: "K4+blocked", opts: Options{K: 4, Blocked: true, GridBlocksCap: 2}, quick: true},
	)
	return vs
}

// diffFullSweep names the entries that run every variant; the others run
// the quick subset.
var diffFullSweep = map[string]bool{"bfs": true, "sssp": true, "pagerank": true}

// diffInput is the input the harness gives entry a on g: PageRank runs 10
// iterations, k-core peels the 2-core, BC starts from src and MS-BFS from
// {src, 0}.
func diffInput(t *testing.T, a *Algorithm, g *graph.CSR, weights []int32, src graph.VertexID) Input {
	t.Helper()
	view, err := a.Graph(g)
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		G: view, Weights: weights, Src: src,
		BCSources: []graph.VertexID{src}, MSBFSSources: []graph.VertexID{src, 0},
		Iterations: 10, CoreK: 2, Seed: 42, Samples: 4,
	}
}

// checkNoFallback asserts a metrics-instrumented launch kept the parallel
// fast path (the tentpole's acceptance criterion).
func checkNoFallback(t *testing.T, label string, mode int, fallback string) {
	t.Helper()
	if mode != 1 && fallback != "" {
		t.Errorf("%s: metrics forced SequentialFallback=%q", label, fallback)
	}
}

// diffGraphs is the seeded three-regime workload set: power-law (Chung-Lu),
// hierarchically skewed (RMAT), and regular (mesh).
func diffGraphs(t testing.TB) []struct {
	name string
	g    *graph.CSR
} {
	t.Helper()
	cl, err := gengraph.ChungLu(1000, 6, 2.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := gengraph.RMAT(8, 8, gengraph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gengraph.Mesh2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.CSR
	}{
		{"chunglu", cl},
		{"rmat", rm},
		{"mesh", mesh},
	}
}

// TestDifferentialKernelVariants is the full matrix: algorithms × variants ×
// graphs × host modes, each compared against its oracle, with obs counters
// attached and cross-mode counter totals required to match bit-for-bit. A
// dynamic variant must also issue more atomics than the same options
// without Dynamic: the difference is its chunk claims, so an entry that
// ignored the schedule would fail. A deferring variant must defer some task
// on the skewed graphs, except in kcore and triangles, which run without
// deferral and must defer none, and it must count the BFS and PageRank
// metrics exactly as the same options without deferral do: a deferred
// task's rerun counts it once. -short trims to the quick variant subset,
// one graph, and the parallel mode.
func TestDifferentialKernelVariants(t *testing.T) {
	graphs := diffGraphs(t)
	variants := diffVariants()
	// 0 = one host goroutine per CPU (the ISSUE's headline mode) and 4 =
	// explicitly parallel even on a single-core host, so the cross-mode
	// comparison is never vacuous.
	modes := []int{1, 0, 4}
	if testing.Short() {
		graphs = graphs[:1]
		modes = []int{0}
		var quick []diffVariant
		for _, v := range variants {
			if v.quick {
				quick = append(quick, v)
			}
		}
		variants = quick
	}
	for _, a := range Algorithms() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			for _, gr := range graphs {
				in := diffInput(t, &a, gr.g, gengraph.EdgeWeights(gr.g, 10, 5), graph.LargestOutComponentSeed(gr.g))
				want := a.Oracle(in)
				for _, v := range variants {
					if !diffFullSweep[a.Name] && !v.quick {
						continue
					}
					perMode := make(map[int]map[string]int64)
					var atomicOps int64
					var deferred int
					for _, mode := range modes {
						label := fmt.Sprintf("%s/%s/%s/ParallelSMs=%d", a.Name, gr.name, v.name, mode)
						d := parallelDevice(t, mode)
						m := obs.NewMetrics(d.Config().NumSMs)
						opts := v.opts
						opts.Metrics = m
						got, err := a.Run(d, in, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := a.Compare(in, got.Value, want.Value); err != nil {
							t.Errorf("%s: differs from the CPU oracle: %v", label, err)
						}
						checkNoFallback(t, label, mode, got.Stats.SequentialFallback)
						perMode[mode] = m.Values()
						atomicOps = got.Stats.AtomicOps
						deferred = got.Deferred
					}
					if v.opts.DeferThreshold > 0 {
						checkDeferral(t, a.Name, gr.name, v, in, deferred, perMode[modes[0]], modes[0])
					}
					if v.opts.Dynamic {
						plain := v.opts
						plain.Dynamic = false
						got, err := a.Run(parallelDevice(t, modes[0]), in, plain)
						if err != nil {
							t.Fatalf("%s/%s/%s without Dynamic: %v", a.Name, gr.name, v.name, err)
						}
						if atomicOps <= got.Stats.AtomicOps {
							t.Errorf("%s/%s/%s: %d atomic ops, not more than the %d without Dynamic: no task was claimed",
								a.Name, gr.name, v.name, atomicOps, got.Stats.AtomicOps)
						}
					}
					for _, mode := range modes[1:] {
						if !reflect.DeepEqual(perMode[modes[0]], perMode[mode]) {
							t.Errorf("%s/%s/%s: obs counters differ between ParallelSMs=%d and %d\n %v\n %v",
								a.Name, gr.name, v.name, modes[0], mode, perMode[modes[0]], perMode[mode])
						}
					}
				}
			}
		})
	}
}

// checkDeferral holds one deferring run of entry name to the deferral
// contract: deferred is the run's deferral count and metrics its counter
// totals at ParallelSMs=mode.
func checkDeferral(t *testing.T, name, graphName string, v diffVariant, in Input, deferred int, metrics map[string]int64, mode int) {
	t.Helper()
	label := fmt.Sprintf("%s/%s/%s", name, graphName, v.name)
	switch {
	case name == "kcore" || name == "triangles":
		if deferred != 0 {
			t.Errorf("%s: deferred %d tasks, want none", label, deferred)
		}
	case graphName != "mesh" && deferred == 0:
		t.Errorf("%s: no task was deferred", label)
	}
	d := parallelDevice(t, mode)
	plain := v.opts
	plain.DeferThreshold = 0
	plain.Metrics = obs.NewMetrics(d.Config().NumSMs)
	if _, err := Lookup(name).Run(d, in, plain); err != nil {
		t.Fatalf("%s without deferral: %v", label, err)
	}
	want := plain.Metrics.Values()
	for _, metric := range []string{MetricBFSFrontier, MetricBFSEdges, MetricPREdges} {
		if metrics[metric] != want[metric] {
			t.Errorf("%s: %s = %d, want %d as without deferral", label, metric, metrics[metric], want[metric])
		}
	}
}

// --- sanitizer sweep -------------------------------------------------------

// sanitizedDevice is a sequential-mode device with the kernel sanitizer
// attached: the dynamic racecheck/memcheck/synccheck side of the harness.
func sanitizedDevice(t testing.TB) (*simt.Device, *sanitize.Sanitizer) {
	t.Helper()
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxWarpsPerSM = 16
	cfg.MaxBlocksPerSM = 4
	cfg.MaxCycles = 50_000_000
	cfg.ParallelSMs = 1
	cfg.Sanitize = true
	d, err := simt.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sanitize.NewSanitizer()
	d.SetSanitizer(s)
	return d, s
}

// TestSanitizerKernelSweep runs every entry of the algorithm table, plus the
// incremental kernels, under the sanitizer on small graphs and requires
// zero Error-severity diagnostics. Benign Info findings
// (the BFS same-value frontier race, frozen-snapshot stale reads) are
// allowed; conflicting-value races, plain/atomic mixes, shared-memory
// races, OOB lanes, uninitialized reads, and barrier hazards are not.
func TestSanitizerKernelSweep(t *testing.T) {
	rm, err := gengraph.RMAT(6, 8, gengraph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := gengraph.Mesh2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{{"rmat", rm}, {"mesh", mesh}}
	opts := Options{K: 4}
	type sweepRow struct {
		name string
		run  func(t *testing.T, d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID) error
	}
	var algos []sweepRow
	for _, a := range Algorithms() {
		a := a
		algos = append(algos, sweepRow{a.Name, func(t *testing.T, d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID) error {
			in, err := sweepInput(&a, g, weights, src)
			if err != nil {
				return err
			}
			_, err = a.Run(d, in, opts)
			return err
		}})
	}
	algos = append(algos, []sweepRow{
		// The streaming kernels: one mutate→repair cycle per incremental
		// algorithm, so the repair kernels stay in the sweep.
		{"incbfs", func(t *testing.T, d *simt.Device, g *graph.CSR, _ []int32, src graph.VertexID) error {
			dl, err := graph.NewDelta(g, nil)
			if err != nil {
				return err
			}
			prev := cpualgo.BFSSequential(g, src)
			applied, _, err := dl.Apply(randomMutationBatch(rand.New(rand.NewSource(7)), dl, 10, false))
			if err != nil {
				return err
			}
			_, _, err = IncrementalBFS(d, dl, src, prev, applied, opts)
			return err
		}},
		{"incsssp", func(t *testing.T, d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID) error {
			dl, err := graph.NewDelta(g, weights)
			if err != nil {
				return err
			}
			prev := cpualgo.SSSPDijkstra(g, weights, src)
			applied, _, err := dl.Apply(randomMutationBatch(rand.New(rand.NewSource(7)), dl, 10, false))
			if err != nil {
				return err
			}
			_, _, err = IncrementalSSSP(d, dl, src, prev, applied, opts)
			return err
		}},
		{"inccc", func(t *testing.T, d *simt.Device, g *graph.CSR, _ []int32, _ graph.VertexID) error {
			sym, err := g.Symmetrize()
			if err != nil {
				return err
			}
			dl, err := graph.NewDelta(sym, nil)
			if err != nil {
				return err
			}
			prev := cpualgo.ConnectedComponents(sym)
			applied, _, err := dl.Apply(randomMutationBatch(rand.New(rand.NewSource(7)), dl, 10, true))
			if err != nil {
				return err
			}
			_, _, err = IncrementalCC(d, dl, prev, applied, opts)
			return err
		}},
		{"deltapagerank", func(t *testing.T, d *simt.Device, g *graph.CSR, _ []int32, _ graph.VertexID) error {
			dl, err := graph.NewDelta(g, nil)
			if err != nil {
				return err
			}
			popts := PageRankOptions{Options: opts, Iterations: 30}
			res, _, err := DeltaPageRank(d, dl, nil, popts)
			if err != nil {
				return err
			}
			if _, _, err := dl.Apply(randomMutationBatch(rand.New(rand.NewSource(7)), dl, 10, false)); err != nil {
				return err
			}
			_, _, err = DeltaPageRank(d, dl, res.Ranks, popts)
			return err
		}},
	}...)
	for _, alg := range algos {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			t.Parallel()
			for _, gr := range graphs {
				d, s := sanitizedDevice(t)
				src := graph.LargestOutComponentSeed(gr.g)
				weights := gengraph.EdgeWeights(gr.g, 10, 5)
				if err := alg.run(t, d, gr.g, weights, src); err != nil {
					t.Fatalf("%s/%s: %v", alg.name, gr.name, err)
				}
				if errs := s.Errors(); len(errs) != 0 {
					t.Errorf("%s/%s: sanitizer found %d Error diagnostic(s):\n%s",
						alg.name, gr.name, len(errs), s.Text())
				}
			}
		})
	}
}

// sweepInput is the input the sanitizer sweep and the warplint pin give
// entry a on g. Two inputs differ from what the entry's form and the other
// entries get, because the pinned fingerprints were measured with them: cc
// runs on the directed graph (its kernel accepts any CSR), and closeness
// draws its landmarks with seed 7.
func sweepInput(a *Algorithm, g *graph.CSR, weights []int32, src graph.VertexID) (Input, error) {
	in := Input{
		G: g, Weights: weights, Src: src,
		BCSources: []graph.VertexID{src}, MSBFSSources: []graph.VertexID{src, 0},
		Iterations: 5, CoreK: 2, Seed: 42, Samples: 2,
	}
	if a.Form == Symmetrized && a.Name != "cc" {
		sym, err := g.Symmetrize()
		if err != nil {
			return Input{}, err
		}
		in.G = sym
	}
	if a.Name == "closeness" {
		in.Seed = 7
	}
	return in, nil
}
