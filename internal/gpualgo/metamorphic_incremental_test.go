package gpualgo

import (
	"math/rand"
	"reflect"
	"testing"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
)

// Metamorphic extensions for the dynamic-graph layer: mutation streams with
// known-identity effects (insert-then-delete), compaction transparency
// (Rebase must not change any incremental result), and relabel invariance
// of repaired results — extending the PR-3 suite to the overlay.

// freshEdges picks count edges absent from dl (and non-self-loop), as
// insert mutations.
func freshEdges(rng *rand.Rand, dl *graph.Delta, count int) []graph.EdgeMutation {
	n := dl.NumVertices()
	var muts []graph.EdgeMutation
	for len(muts) < count {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v || dl.HasEdge(u, v) {
			continue
		}
		muts = append(muts, graph.EdgeMutation{Src: u, Dst: v, Weight: int32(rng.Intn(9) + 1)})
	}
	return muts
}

// TestMetamorphicInsertThenDeleteIdentity applies a batch of fresh inserts
// and then deletes the same edges: the logical graph must round-trip exactly
// (Compact bit-identical to the untouched base), the epoch must still
// advance by two, and an incremental BFS chained through both batches must
// land back on the original levels.
func TestMetamorphicInsertThenDeleteIdentity(t *testing.T) {
	for _, gr := range diffGraphs(t) {
		gr := gr
		t.Run(gr.name, func(t *testing.T) {
			t.Parallel()
			src := graph.LargestOutComponentSeed(gr.g)
			dl, err := graph.NewDelta(gr.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, _, err := dl.Compact()
			if err != nil {
				t.Fatal(err)
			}
			prev := cpualgo.BFSSequential(gr.g, src)
			rng := rand.New(rand.NewSource(5))
			inserts := freshEdges(rng, dl, 12)
			deletes := make([]graph.EdgeMutation, len(inserts))
			for i, m := range inserts {
				deletes[i] = graph.EdgeMutation{Src: m.Src, Dst: m.Dst, Del: true}
			}
			d := parallelDevice(t, 0)

			applied1, _, err := dl.Apply(inserts)
			if err != nil {
				t.Fatal(err)
			}
			mid, _, err := IncrementalBFS(d, dl, src, prev, applied1, Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			applied2, _, err := dl.Apply(deletes)
			if err != nil {
				t.Fatal(err)
			}
			back, _, err := IncrementalBFS(d, dl, src, mid.Levels, applied2, Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Levels, prev) {
				t.Errorf("insert-then-delete did not restore the original BFS levels")
			}
			if dl.Epoch() != 2 {
				t.Errorf("epoch = %d after two batches, want 2", dl.Epoch())
			}
			roundTrip, _, err := dl.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(roundTrip, base) {
				t.Errorf("insert-then-delete did not round-trip the compacted CSR")
			}
			if dl.PendingOps() != 0 {
				t.Errorf("PendingOps = %d after inverse batch, want 0", dl.PendingOps())
			}
		})
	}
}

// TestMetamorphicCompactionTransparency pins two equivalences: applying a
// batch then compacting equals compacting first (an identity Rebase) then
// applying the same batch; and Rebase between mutation and repair must not
// change the repaired result — the physical layout is invisible to the
// incremental algorithms.
func TestMetamorphicCompactionTransparency(t *testing.T) {
	for _, gr := range diffGraphs(t) {
		gr := gr
		t.Run(gr.name, func(t *testing.T) {
			t.Parallel()
			src := graph.LargestOutComponentSeed(gr.g)
			rng := rand.New(rand.NewSource(17))

			// Path A: apply then compact.
			dlA, err := graph.NewDelta(gr.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			batch := randomMutationBatch(rng, dlA, 12, false)
			appliedA, _, err := dlA.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			cA, _, err := dlA.Compact()
			if err != nil {
				t.Fatal(err)
			}

			// Path B: compact first (identity Rebase), then the same batch.
			dlB, err := graph.NewDelta(gr.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dlB.Rebase(); err != nil {
				t.Fatal(err)
			}
			appliedB, _, err := dlB.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			cB, _, err := dlB.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cA, cB) {
				t.Fatalf("apply-then-compact != compact-then-apply")
			}
			if len(appliedA) != len(appliedB) {
				t.Fatalf("effective changes differ: %d vs %d", len(appliedA), len(appliedB))
			}

			// Repair on the overlay vs repair after Rebase: same result.
			prev := cpualgo.BFSSequential(gr.g, src)
			d := parallelDevice(t, 0)
			resOverlay, _, err := IncrementalBFS(d, dlA, src, prev, appliedA, Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := dlA.Rebase(); err != nil {
				t.Fatal(err)
			}
			if dlA.Rebases() != 1 {
				t.Errorf("Rebases = %d, want 1", dlA.Rebases())
			}
			resRebased, _, err := IncrementalBFS(d, dlA, src, prev, appliedA, Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resOverlay.Levels, resRebased.Levels) {
				t.Errorf("Rebase changed the incremental BFS result")
			}
		})
	}
}

// relabelMutations maps a batch through an old→new vertex permutation.
func relabelMutations(batch []graph.EdgeMutation, p []graph.VertexID) []graph.EdgeMutation {
	out := make([]graph.EdgeMutation, len(batch))
	for i, m := range batch {
		out[i] = graph.EdgeMutation{Src: p[m.Src], Dst: p[m.Dst], Weight: m.Weight, Del: m.Del}
	}
	return out
}

// permuteI32 returns out with out[p[v]] = vals[v].
func permuteI32(vals []int32, p []graph.VertexID) []int32 {
	out := make([]int32, len(vals))
	for v, x := range vals {
		out[p[v]] = x
	}
	return out
}

// TestMetamorphicIncrementalRelabelInvariance relabels the graph, the
// mutation batch, and the warm-start vector through the same permutation
// and requires the repaired BFS levels and SSSP distances to be the
// permutation of the original repair; CC labels are compared through the
// induced min-id mapping (component identity is relabel-invariant even
// though the representative id is not).
func TestMetamorphicIncrementalRelabelInvariance(t *testing.T) {
	gr := diffGraphs(t)[0].g
	src := graph.LargestOutComponentSeed(gr)
	sym, err := gr.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	for permName, p := range metamorphicPerms(gr, 23) {
		p := p
		t.Run(permName, func(t *testing.T) {
			t.Parallel()
			inv := invert(p)
			d := parallelDevice(t, 0)
			opts := Options{K: 8}

			t.Run("bfs", func(t *testing.T) {
				rg, err := graph.Relabel(gr, p)
				if err != nil {
					t.Fatal(err)
				}
				dl, _ := graph.NewDelta(gr, nil)
				rdl, _ := graph.NewDelta(rg, nil)
				rng := rand.New(rand.NewSource(31))
				batch := randomMutationBatch(rng, dl, 12, false)
				applied, _, err := dl.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				rapplied, _, err := rdl.Apply(relabelMutations(batch, p))
				if err != nil {
					t.Fatal(err)
				}
				if len(applied) != len(rapplied) {
					t.Fatalf("effective changes differ under relabeling: %d vs %d", len(applied), len(rapplied))
				}
				prev := cpualgo.BFSSequential(gr, src)
				res, _, err := IncrementalBFS(d, dl, src, prev, applied, opts)
				if err != nil {
					t.Fatal(err)
				}
				rres, _, err := IncrementalBFS(d, rdl, p[src], permuteI32(prev, p), rapplied, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rres.Levels, permuteI32(res.Levels, p)) {
					t.Errorf("incremental BFS levels are not relabel-invariant")
				}
			})

			t.Run("sssp", func(t *testing.T) {
				rg, err := graph.Relabel(gr, p)
				if err != nil {
					t.Fatal(err)
				}
				w := endpointWeights(gr, nil)
				rw := endpointWeights(rg, inv)
				dl, err := graph.NewDelta(gr, w)
				if err != nil {
					t.Fatal(err)
				}
				rdl, err := graph.NewDelta(rg, rw)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(37))
				batch := randomMutationBatch(rng, dl, 12, false)
				// Structural weights so both labelings insert identically.
				for i := range batch {
					if !batch[i].Del {
						batch[i].Weight = endpointWeight(batch[i].Src, batch[i].Dst)
					}
				}
				applied, _, err := dl.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				rapplied, _, err := rdl.Apply(relabelMutations(batch, p))
				if err != nil {
					t.Fatal(err)
				}
				if len(applied) != len(rapplied) {
					t.Fatalf("effective changes differ under relabeling: %d vs %d", len(applied), len(rapplied))
				}
				prev := cpualgo.SSSPDijkstra(gr, w, src)
				res, _, err := IncrementalSSSP(d, dl, src, prev, applied, opts)
				if err != nil {
					t.Fatal(err)
				}
				rres, _, err := IncrementalSSSP(d, rdl, p[src], permuteI32(prev, p), rapplied, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rres.Dist, permuteI32(res.Dist, p)) {
					t.Errorf("incremental SSSP distances are not relabel-invariant")
				}
			})

			t.Run("cc", func(t *testing.T) {
				rsym, err := graph.Relabel(sym, p)
				if err != nil {
					t.Fatal(err)
				}
				dl, _ := graph.NewDelta(sym, nil)
				rdl, _ := graph.NewDelta(rsym, nil)
				rng := rand.New(rand.NewSource(41))
				batch := randomMutationBatch(rng, dl, 10, true)
				applied, _, err := dl.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				rapplied, _, err := rdl.Apply(relabelMutations(batch, p))
				if err != nil {
					t.Fatal(err)
				}
				prev := cpualgo.ConnectedComponents(sym)
				res, _, err := IncrementalCC(d, dl, prev, applied, opts)
				if err != nil {
					t.Fatal(err)
				}
				rres, _, err := IncrementalCC(d, rdl, permuteCCLabels(prev, p), rapplied, opts)
				if err != nil {
					t.Fatal(err)
				}
				// Component representatives are min ids, so relabeling maps
				// label l to min over p of l's members.
				if !reflect.DeepEqual(rres.Labels, permuteCCLabels(res.Labels, p)) {
					t.Errorf("incremental CC components are not relabel-invariant")
				}
			})
		})
	}
}

// permuteCCLabels maps min-id component labels through an old→new vertex
// permutation: vertex p[v] gets the minimum new id among v's old component.
func permuteCCLabels(labels []int32, p []graph.VertexID) []int32 {
	minNew := make(map[int32]int32)
	for v, l := range labels {
		nv := int32(p[v])
		if cur, ok := minNew[l]; !ok || nv < cur {
			minNew[l] = nv
		}
	}
	out := make([]int32, len(labels))
	for v, l := range labels {
		out[p[v]] = minNew[l]
	}
	return out
}

// TestMetamorphicEpochAdvance pins the epoch semantics the serve layer keys
// caches on: every Apply bumps the epoch exactly once (even an all-no-op
// batch), Rebase never does, and a failed Apply never does.
func TestMetamorphicEpochAdvance(t *testing.T) {
	g := diffGraphs(t)[0].g
	dl, err := graph.NewDelta(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := dl.Apply([]graph.EdgeMutation{{Src: 0, Dst: 0}}); err != nil {
			t.Fatal(err)
		}
		if dl.Epoch() != int64(i) {
			t.Fatalf("epoch = %d after %d no-op batches", dl.Epoch(), i)
		}
	}
	if err := dl.Rebase(); err != nil {
		t.Fatal(err)
	}
	if dl.Epoch() != 3 {
		t.Errorf("Rebase changed the epoch to %d", dl.Epoch())
	}
	if _, _, err := dl.Apply([]graph.EdgeMutation{{Src: 0, Dst: -1}}); err == nil {
		t.Fatal("out-of-range Apply succeeded")
	}
	if dl.Epoch() != 3 {
		t.Errorf("failed Apply changed the epoch to %d", dl.Epoch())
	}
}
