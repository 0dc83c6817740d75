package main

import (
	"maps"
	"slices"
	"testing"
	"time"

	"maxwarp/internal/graph"
)

// TestMutationStreamIsBalanced applies a long balanced stream to a
// graph.Delta: after every batch the live graph is the original minus
// exactly the batch's deletions, so |E| never drifts, and the closing batch
// restores the original edge set and weights.
func TestMutationStreamIsBalanced(t *testing.T) {
	egs, err := buildServeGraphs(make(map[string]float64))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range serveGraphNames {
		eg := egs[name]
		orig := edgeSet(eg.g, eg.w)
		dl, err := graph.NewDelta(eg.g, eg.w)
		if err != nil {
			t.Fatal(err)
		}
		s := newMutationStream(eg.g, eg.w, 5)
		for k := 0; k < 40; k++ {
			_, st, err := dl.Apply(s.next())
			if err != nil {
				t.Fatal(err)
			}
			wantIns := mutationsPerBatch
			if k == 0 {
				wantIns = 0
			}
			if st.Inserted != wantIns || st.Deleted != mutationsPerBatch || st.DupInserts+st.AbsentDeletes+st.SelfLoops != 0 {
				t.Fatalf("%s batch %d: %+v, want %d inserts and %d deletes, no no-ops", name, k, st, wantIns, mutationsPerBatch)
			}
			g, w, err := dl.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() != eg.g.NumEdges()-mutationsPerBatch {
				t.Fatalf("%s batch %d: |E| = %d, want %d", name, k, g.NumEdges(), eg.g.NumEdges()-mutationsPerBatch)
			}
			live := edgeSet(g, w)
			for _, m := range s.prev {
				live[[3]int32{m.Src, m.Dst, m.Weight}]++
			}
			if !maps.Equal(live, orig) {
				t.Fatalf("%s batch %d: live edges plus this batch's deletions differ from the original graph", name, k)
			}
		}
		if _, _, err := dl.Apply(s.closing()); err != nil {
			t.Fatal(err)
		}
		g, w, err := dl.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.RowPtr, eg.g.RowPtr) || !maps.Equal(edgeSet(g, w), orig) {
			t.Fatalf("%s: closing batch did not restore the original graph", name)
		}
	}
}

// edgeSet returns g's edges with their weights as a multiset (the RMAT
// graphs have parallel edges).
func edgeSet(g *graph.CSR, w []int32) map[[3]int32]int {
	set := make(map[[3]int32]int, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
			set[[3]int32{int32(u), g.Col[p], w[p]}]++
		}
	}
	return set
}

// TestQueryScheduleIsStratified checks that every seed offers exactly the
// mix's item shares in every round of 6, and exactly the no_cache share in
// every block of 8 queries of one item, at a fixed rate.
func TestQueryScheduleIsStratified(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ops := querySchedule(seed, 4, 30*time.Second)
		if len(ops) != 120 {
			t.Fatalf("seed %d: %d queries, want 120", seed, len(ops))
		}
		counts := make([]int, len(serveItems))
		uncached := make([]int, len(serveItems))
		for i, o := range ops {
			if o.due != time.Duration(i)*250*time.Millisecond {
				t.Fatalf("seed %d: query %d due at %v", seed, i, o.due)
			}
			counts[o.item]++
			if o.noCache {
				uncached[o.item]++
			}
			if c := counts[o.item]; c%cacheBlock == 0 && uncached[o.item] != uncachedPerBlock*c/cacheBlock {
				t.Fatalf("seed %d: %d of the first %d %s queries uncached", seed, uncached[o.item], c, serveItems[o.item].name)
			}
			if (i+1)%mixRound == 0 {
				for j, it := range serveItems {
					if counts[j] != it.weight*(i+1)/mixRound {
						t.Fatalf("seed %d: after %d queries %s was drawn %d times", seed, i+1, it.name, counts[j])
					}
				}
			}
		}
	}
	if slices.EqualFunc(querySchedule(1, 4, 3*time.Second), querySchedule(2, 4, 3*time.Second), func(a, b op) bool { return a.item == b.item }) {
		t.Error("seeds 1 and 2 draw the same query order")
	}
}
