package gpualgo

import (
	"fmt"
	"sort"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// TriangleResult is the output of triangle counting.
type TriangleResult struct {
	Result
	// PerVertex[u] counts triangles {u,v,w} with u < v < w (so each triangle
	// is attributed to its minimum vertex exactly once).
	PerVertex []int32
	// Total is the triangle count of the graph.
	Total int64
}

// TriangleCount counts triangles on the device. The graph must be
// undirected, simple, with sorted adjacency lists (graph.CSR.Symmetrize or
// FromEdgesSimple produce this form); Validate-style requirements are
// checked up front.
//
// The kernel is a three-level nest that exercises every vwarp phase: each
// virtual warp owns a vertex u (task), loops its neighbors v sequentially
// (GroupLoop, replicated phase), and for each oriented edge (u,v) the K
// lanes stride over N(v) (SIMD phase), binary-searching each candidate w in
// the sorted N(u) — the classic GPU intersection formulation.
func TriangleCount(d *simt.Device, g *graph.CSR, opts Options) (*TriangleResult, error) {
	return complete(newTriangleRun(d, g, nil, opts))
}

// newTriangleRun builds a one-round run on dg, the upload of g (nil
// uploads g once the preconditions hold): a single launch.
func newTriangleRun(d *simt.Device, g *graph.CSR, dg *DeviceGraph, opts Options) (*Run[*TriangleResult], error) {
	res := &TriangleResult{}
	// The kernel calls Row on each neighbor's row, not only on its task's,
	// so triangle counting runs without deferral.
	opts.DeferThreshold = 0
	r, err := newRun[*TriangleResult](d, &res.Result, &opts, g.NumVertices())
	if err != nil {
		return nil, err
	}
	if err := requireSortedSimple(g); err != nil {
		return nil, err
	}
	if dg == nil {
		dg = Upload(d, g)
	}
	n := dg.NumVertices
	r.graph(dg)
	out := r.i32("tri.out", n)
	r.round = func() (bool, error) {
		return true, r.launch(r.grid(n), triangleKernel(dg, out, r.sched), "triangle count")
	}
	r.result = func() *TriangleResult {
		res.PerVertex = append([]int32(nil), out.Data()...)
		res.Total = 0
		for _, c := range res.PerVertex {
			res.Total += int64(c)
		}
		return res
	}
	return r, nil
}

// triangleKernel writes out[u], the triangles {u,v,w} with u < v < w.
func triangleKernel(dg *DeviceGraph, out *simt.BufI32, sched vwarp.Schedule) simt.Kernel {
	n := dg.NumVertices
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(n), func(ts *vwarp.Tasks) {
			gn := ts.Groups
			ts.Row(dg.RowPtr, ts.Task)
			// The neighbors' Row calls below overwrite ts.Start and ts.End.
			startU := append([]int32(nil), ts.Start...)
			endU := append([]int32(nil), ts.End...)

			count := w.VecI32()
			w.Apply(1, func(lane int) { count[lane] = 0 })

			v := make([]int32, gn)
			ts.GroupLoop(startU, endU, func(pos []int32) {
				ts.LoadI32Grouped(dg.Col, pos, v)
				ts.Mask(func(gi int) bool { return v[gi] > ts.Task[gi] }, func() {
					ts.Row(dg.RowPtr, v)
					wv := w.VecI32()
					ts.SIMDRange(ts.Start, ts.End, func(j []int32) {
						w.LoadI32(dg.Col, j, wv)
						w.If(func(lane int) bool { return wv[lane] > v[ts.Group(lane)] }, func() {
							found := binarySearchLanes(ts, dg.Col, startU, endU, wv)
							w.Apply(1, func(lane int) {
								if found[lane] {
									count[lane]++
								}
							})
						}, nil)
					})
				})
			})
			sums := make([]int32, gn)
			ts.ReduceAddI32(count, sums)
			ts.StoreI32Grouped(out, ts.Task, sums, nil)
		})
	}
}

// binarySearchLanes searches target[lane] in the sorted slice
// col[start[g]:end[g]] of the lane's group, per active lane, returning a
// per-lane found flag. Cost: a divergent While of ~log(deg) iterations, each
// one gather + compare — exactly what the CUDA kernel pays.
func binarySearchLanes(ts *vwarp.Tasks, col *simt.BufI32, start, end []int32, target []int32) []bool {
	w := ts.W
	lo := w.VecI32()
	hi := w.VecI32()
	w.Apply(1, func(lane int) {
		g := ts.Group(lane)
		lo[lane] = start[g]
		hi[lane] = end[g]
	})
	probe := w.VecI32()
	mid := w.VecI32()
	w.While(func(lane int) bool { return lo[lane] < hi[lane] }, func() {
		w.Apply(1, func(lane int) { mid[lane] = lo[lane] + (hi[lane]-lo[lane])/2 })
		w.LoadI32(col, mid, probe)
		w.Apply(1, func(lane int) {
			if probe[lane] < target[lane] {
				lo[lane] = mid[lane] + 1
			} else {
				hi[lane] = mid[lane]
			}
		})
	})
	found := make([]bool, w.Width())
	// Final membership probe: one gather at the insertion point.
	inRange := w.VecI32()
	w.Apply(1, func(lane int) {
		g := ts.Group(lane)
		if lo[lane] < end[g] {
			inRange[lane] = 1
		} else {
			inRange[lane] = 0
			lo[lane] = start[g] // safe index for the masked gather below
		}
	})
	w.If(func(lane int) bool { return inRange[lane] == 1 }, func() {
		w.LoadI32(col, lo, probe)
		w.Apply(1, func(lane int) { found[lane] = probe[lane] == target[lane] })
	}, nil)
	return found
}

// requireSortedSimple verifies the preconditions for intersection kernels.
func requireSortedSimple(g *graph.CSR) error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		adj := g.Neighbors(graph.VertexID(v))
		for i, u := range adj {
			if u == graph.VertexID(v) {
				return fmt.Errorf("gpualgo: self loop at vertex %d; need a simple graph", v)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("gpualgo: adjacency of vertex %d unsorted or duplicated", v)
			}
		}
	}
	return nil
}

// TriangleCountCPU is the host oracle: per-vertex counts of triangles
// {u,v,w}, u<v<w, attributed to u, via sorted-list intersection.
func TriangleCountCPU(g *graph.CSR) ([]int32, int64) {
	n := g.NumVertices()
	per := make([]int32, n)
	var total int64
	for u := 0; u < n; u++ {
		nu := g.Neighbors(graph.VertexID(u))
		for _, v := range nu {
			if v <= graph.VertexID(u) {
				continue
			}
			nv := g.Neighbors(v)
			// Two-pointer intersection counting w > v.
			i := sort.Search(len(nu), func(i int) bool { return nu[i] > v })
			j := sort.Search(len(nv), func(j int) bool { return nv[j] > v })
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] < nv[j]:
					i++
				case nu[i] > nv[j]:
					j++
				default:
					per[u]++
					total++
					i++
					j++
				}
			}
		}
	}
	return per, total
}
