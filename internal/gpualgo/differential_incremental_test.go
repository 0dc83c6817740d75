package gpualgo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// The dynamic-graph differential harness: random mutation batches stream
// into a graph.Delta, and after every batch each incremental algorithm's
// repaired result is compared against a full recompute by the CPU oracle on
// the Compact()-ed graph — chained, so each repair's output is the next
// batch's warm start. The sweep covers the three seeded graph regimes, host
// modes ParallelSMs ∈ {1, 0, 4} (results must also be bit-identical across
// modes), and a sanitizer-enabled configuration.

// randomMutationBatch builds size mutations against dl's current live edge
// set: half deletions of live edges, half random insertions (which may hit
// live edges — duplicate-insert no-ops are part of the contract). symmetric
// emits both directions of every mutation (for CC). Weights range 1..9.
func randomMutationBatch(rng *rand.Rand, dl *graph.Delta, size int, symmetric bool) []graph.EdgeMutation {
	type edge struct{ u, v graph.VertexID }
	var live []edge
	n := dl.NumVertices()
	for v := 0; v < n; v++ {
		dl.OutNeighborsLive(graph.VertexID(v), func(u graph.VertexID, _ int32) bool {
			live = append(live, edge{graph.VertexID(v), u})
			return true
		})
	}
	var batch []graph.EdgeMutation
	add := func(m graph.EdgeMutation) {
		batch = append(batch, m)
		if symmetric {
			batch = append(batch, graph.EdgeMutation{Src: m.Dst, Dst: m.Src, Weight: m.Weight, Del: m.Del})
		}
	}
	for i := 0; i < size; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			e := live[rng.Intn(len(live))]
			add(graph.EdgeMutation{Src: e.u, Dst: e.v, Del: true})
		} else {
			add(graph.EdgeMutation{
				Src:    graph.VertexID(rng.Intn(n)),
				Dst:    graph.VertexID(rng.Intn(n)),
				Weight: int32(rng.Intn(9) + 1),
			})
		}
	}
	return batch
}

// incDiffCase runs one algorithm's chained mutate→repair→compare loop on one
// device. prevFn recomputes nothing: the repaired output of batch i is the
// warm start of batch i+1.
type incDiffCase struct {
	name      string
	symmetric bool
	weighted  bool
	// run repairs after one batch and returns the repaired vector to chain
	// (int32 algorithms) — PageRank chains float32 via its own closure state.
	run func(t *testing.T, label string, d *simt.Device, dl *graph.Delta, prev []int32, applied []graph.AppliedMutation, opts Options) []int32
	// oracle computes the full-recompute answer on the compacted graph.
	oracle func(t *testing.T, g *graph.CSR, w []int32, src graph.VertexID) []int32
}

func incDiffCases(src graph.VertexID) []incDiffCase {
	return []incDiffCase{
		{
			name: "bfs",
			run: func(t *testing.T, label string, d *simt.Device, dl *graph.Delta, prev []int32, applied []graph.AppliedMutation, opts Options) []int32 {
				res, info, err := IncrementalBFS(d, dl, src, prev, applied, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if info.Rounds > 0 && res.Launches != info.Rounds {
					t.Errorf("%s: %d launches for %d rounds", label, res.Launches, info.Rounds)
				}
				return res.Levels
			},
			oracle: func(t *testing.T, g *graph.CSR, _ []int32, src graph.VertexID) []int32 {
				return cpualgo.BFSSequential(g, src)
			},
		},
		{
			name:     "sssp",
			weighted: true,
			run: func(t *testing.T, label string, d *simt.Device, dl *graph.Delta, prev []int32, applied []graph.AppliedMutation, opts Options) []int32 {
				res, _, err := IncrementalSSSP(d, dl, src, prev, applied, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res.Dist
			},
			oracle: func(t *testing.T, g *graph.CSR, w []int32, src graph.VertexID) []int32 {
				return cpualgo.SSSPDijkstra(g, w, src)
			},
		},
		{
			name:      "cc",
			symmetric: true,
			run: func(t *testing.T, label string, d *simt.Device, dl *graph.Delta, prev []int32, applied []graph.AppliedMutation, opts Options) []int32 {
				res, _, err := IncrementalCC(d, dl, prev, applied, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res.Labels
			},
			oracle: func(t *testing.T, g *graph.CSR, _ []int32, _ graph.VertexID) []int32 {
				return cpualgo.ConnectedComponents(g)
			},
		},
	}
}

// incDiffStart prepares the per-case starting state: the (possibly
// symmetrized) base graph, its delta, and the exact pre-mutation result.
func incDiffStart(t *testing.T, c incDiffCase, g0 *graph.CSR, src graph.VertexID) (*graph.Delta, []int32) {
	t.Helper()
	g := g0
	if c.symmetric {
		var err error
		if g, err = g0.Symmetrize(); err != nil {
			t.Fatal(err)
		}
	}
	var weights []int32
	if c.weighted {
		weights = gengraph.EdgeWeights(g, 10, 5)
	}
	dl, err := graph.NewDelta(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	var prev []int32
	switch c.name {
	case "bfs":
		prev = cpualgo.BFSSequential(g, src)
	case "sssp":
		prev = cpualgo.SSSPDijkstra(g, weights, src)
	case "cc":
		prev = cpualgo.ConnectedComponents(g)
	}
	return dl, prev
}

// TestDifferentialIncremental streams mutation batches and pins every
// repaired result bit-identical to the CPU oracle's full recompute on the
// compacted graph, chained across batches, for each host mode — and then
// requires the per-mode result streams to match each other bit-for-bit.
func TestDifferentialIncremental(t *testing.T) {
	graphs := diffGraphs(t)
	modes := []int{1, 0, 4}
	variants := []struct {
		name string
		opts Options
	}{
		{"K1", Options{K: 1}},
		{"K8", Options{K: 8}},
	}
	const batches = 3
	const batchSize = 10
	if testing.Short() {
		graphs = graphs[:1]
		modes = []int{0}
	}
	for _, c := range incDiffCases(0) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, gr := range graphs {
				src := graph.LargestOutComponentSeed(gr.g)
				for _, v := range variants {
					// results[mode][batch] chains and cross-checks.
					perMode := make(map[int][][]int32)
					for _, mode := range modes {
						cases := incDiffCases(src)
						var cc incDiffCase
						for _, x := range cases {
							if x.name == c.name {
								cc = x
							}
						}
						d := parallelDevice(t, mode)
						dl, prev := incDiffStart(t, cc, gr.g, src)
						rng := rand.New(rand.NewSource(42))
						var stream [][]int32
						for b := 0; b < batches; b++ {
							label := fmt.Sprintf("%s/%s/%s/ParallelSMs=%d/batch%d", c.name, gr.name, v.name, mode, b)
							batch := randomMutationBatch(rng, dl, batchSize, cc.symmetric)
							applied, _, err := dl.Apply(batch)
							if err != nil {
								t.Fatalf("%s: Apply: %v", label, err)
							}
							got := cc.run(t, label, d, dl, prev, applied, v.opts)
							cg, cw, err := dl.Compact()
							if err != nil {
								t.Fatalf("%s: Compact: %v", label, err)
							}
							want := cc.oracle(t, cg, cw, src)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: incremental result differs from full recompute on compacted graph", label)
							}
							stream = append(stream, got)
							prev = got
						}
						perMode[mode] = stream
					}
					for _, mode := range modes[1:] {
						if !reflect.DeepEqual(perMode[modes[0]], perMode[mode]) {
							t.Errorf("%s/%s/%s: repaired results differ between ParallelSMs=%d and %d",
								c.name, gr.name, v.name, modes[0], mode)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialDeltaPageRank chains warm-started delta PageRank across
// mutation batches: after each batch the re-converged ranks must match the
// CPU oracle's converged ranks on the compacted graph within tolerance, and
// the float32 rank streams must be bit-identical across host modes.
func TestDifferentialDeltaPageRank(t *testing.T) {
	graphs := diffGraphs(t)
	modes := []int{1, 0, 4}
	if testing.Short() {
		graphs = graphs[:1]
		modes = []int{0}
	}
	const batches = 3
	popts := PageRankOptions{Options: Options{K: 8}, Iterations: 200, Tolerance: 5e-7}
	for _, gr := range graphs {
		gr := gr
		t.Run(gr.name, func(t *testing.T) {
			t.Parallel()
			perMode := make(map[int][][]float32)
			for _, mode := range modes {
				d := parallelDevice(t, mode)
				dl, err := graph.NewDelta(gr.g, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Cold start on the unmutated delta = the initial full run.
				res, _, err := DeltaPageRank(d, dl, nil, popts)
				if err != nil {
					t.Fatal(err)
				}
				prev := res.Ranks
				rng := rand.New(rand.NewSource(99))
				var stream [][]float32
				for b := 0; b < batches; b++ {
					label := fmt.Sprintf("pagerank/%s/ParallelSMs=%d/batch%d", gr.name, mode, b)
					batch := randomMutationBatch(rng, dl, 8, false)
					if _, _, err := dl.Apply(batch); err != nil {
						t.Fatalf("%s: Apply: %v", label, err)
					}
					res, info, err := DeltaPageRank(d, dl, prev, popts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if info.Rounds == 0 {
						t.Errorf("%s: warm restart ran zero iterations", label)
					}
					cg, _, err := dl.Compact()
					if err != nil {
						t.Fatalf("%s: Compact: %v", label, err)
					}
					want, _ := cpualgo.PageRank(cg, cpualgo.PageRankOptions{MaxIters: 500, Tolerance: 1e-10})
					for v := range want {
						if diff := math.Abs(float64(res.Ranks[v]) - want[v]); diff > 1e-3*(want[v]+1e-9)+1e-5 {
							t.Errorf("%s: rank[%d] = %g, oracle %g", label, v, res.Ranks[v], want[v])
							break
						}
					}
					stream = append(stream, res.Ranks)
					prev = res.Ranks
				}
				perMode[mode] = stream
			}
			for _, mode := range modes[1:] {
				if !reflect.DeepEqual(perMode[modes[0]], perMode[mode]) {
					t.Errorf("pagerank/%s: rank streams differ between ParallelSMs=%d and %d", gr.name, modes[0], mode)
				}
			}
		})
	}
}

// TestIncrementalSanitized runs one full mutate→repair cycle per algorithm
// under the kernel sanitizer and requires zero Error-severity diagnostics
// from the repair kernels.
func TestIncrementalSanitized(t *testing.T) {
	rm, err := gengraph.RMAT(6, 8, gengraph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(rm)
	opts := Options{K: 4}
	for _, c := range incDiffCases(src) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d, s := sanitizedDevice(t)
			dl, prev := incDiffStart(t, c, rm, src)
			rng := rand.New(rand.NewSource(7))
			batch := randomMutationBatch(rng, dl, 10, c.symmetric)
			applied, _, err := dl.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			got := c.run(t, c.name, d, dl, prev, applied, opts)
			cg, cw, err := dl.Compact()
			if err != nil {
				t.Fatal(err)
			}
			want := c.oracle(t, cg, cw, src)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sanitized incremental result differs from oracle", c.name)
			}
			if errs := s.Errors(); len(errs) != 0 {
				t.Errorf("%s: sanitizer found %d Error diagnostic(s):\n%s", c.name, len(errs), s.Text())
			}
		})
	}
	t.Run("pagerank", func(t *testing.T) {
		d, s := sanitizedDevice(t)
		dl, err := graph.NewDelta(rm, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := DeltaPageRank(d, dl, nil, PageRankOptions{Options: opts, Iterations: 30})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		batch := randomMutationBatch(rng, dl, 10, false)
		if _, _, err := dl.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DeltaPageRank(d, dl, res.Ranks, PageRankOptions{Options: opts, Iterations: 30}); err != nil {
			t.Fatal(err)
		}
		if errs := s.Errors(); len(errs) != 0 {
			t.Errorf("pagerank: sanitizer found %d Error diagnostic(s):\n%s", len(errs), s.Text())
		}
	})
}
