package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// BCResult is the output of betweenness centrality.
type BCResult struct {
	Result
	// Scores holds the (possibly sampled) betweenness centrality per vertex:
	// the sum of pair-dependencies over the given sources.
	Scores []float32
}

// BetweennessCentrality runs Brandes' algorithm on the device for the given
// sources (pass all vertices for exact BC, a sample for the standard
// approximation). Per source it performs a forward level-synchronous phase
// that counts shortest paths (sigma) and a backward dependency-accumulation
// sweep over levels — both as virtual warp-centric kernels over adjacency
// lists, making BC the most kernel-intensive application in the suite.
func BetweennessCentrality(d *simt.Device, g *graph.CSR, sources []graph.VertexID, opts Options) (*BCResult, error) {
	return complete(newBCRun(d, g, sources, opts))
}

// newBCRun builds a Brandes run whose rounds are sources: the forward
// launches level by level, the backward sweep, then the accumulation.
func newBCRun(d *simt.Device, g *graph.CSR, sources []graph.VertexID, opts Options) (*Run[*BCResult], error) {
	res := &BCResult{}
	r, err := newRun[*BCResult](d, &res.Result, &opts)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("gpualgo: BC source %d out of range [0,%d)", s, n)
		}
	}
	dg := r.graph(Upload(d, g))
	levels := r.i32("bc.levels", n)
	sigma := r.f32("bc.sigma", n)
	delta := r.f32("bc.delta", n)
	bc := r.f32("bc.scores", n)
	// The backward pass accumulates bc[v] += delta[v] from the first source
	// on — the initial zeros are load-bearing, so set them explicitly.
	bc.Fill(0)
	discovered := r.i32("bc.discovered", 1)
	lc := r.grid(n)
	r.done = len(sources) == 0
	r.round = func() (bool, error) {
		src := sources[res.Iterations]
		levels.Fill(Unvisited)
		sigma.Fill(0)
		delta.Fill(0)
		levels.Data()[src] = 0
		sigma.Data()[src] = 1

		// Forward: levels and path counts.
		depth := int32(0)
		for {
			discovered.Data()[0] = 0
			if err := r.launch(lc, bcForwardKernel(dg, levels, sigma, discovered, depth, opts), "BC forward (src %d, level %d)", src, depth); err != nil {
				return false, err
			}
			if discovered.Data()[0] == 0 {
				break
			}
			depth++
			if int(depth) > n {
				return false, fmt.Errorf("gpualgo: BC forward did not terminate")
			}
		}
		// Backward: dependency accumulation from the deepest level down.
		for dep := depth - 1; dep >= 0; dep-- {
			if err := r.launch(lc, bcBackwardKernel(dg, levels, sigma, delta, dep, opts), "BC backward (src %d, level %d)", src, dep); err != nil {
				return false, err
			}
		}
		// Accumulate: bc[v] += delta[v] for v != src.
		if err := r.launch(lc, bcAccumulateKernel(n, int32(src), delta, bc), "BC accumulate (src %d)", src); err != nil {
			return false, err
		}
		return res.Iterations+1 >= len(sources), nil
	}
	r.result = func() *BCResult {
		res.Scores = append([]float32(nil), bc.Data()...)
		return res
	}
	return r, nil
}

// bcForwardKernel expands level cur, counting shortest paths: every edge
// from the frontier into level cur+1 adds the tail's sigma to the head's.
func bcForwardKernel(dg *DeviceGraph, levels *simt.BufI32, sigma *simt.BufF32, discovered *simt.BufI32, cur int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			lvl := make([]int32, g)
			ts.LoadI32Grouped(levels, ts.Task, lvl)
			ts.Mask(func(gi int) bool { return lvl[gi] == cur }, func() {
				mySigma := make([]float32, g)
				ts.LoadF32Grouped(sigma, ts.Task, mySigma)
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
				nbr := w.VecI32()
				old := w.VecI32()
				sig := w.VecF32()
				unvisited := w.ConstI32(Unvisited)
				next := w.ConstI32(cur + 1)
				zero := w.ConstI32(0)
				one := w.ConstI32(1)
				w.Apply(1, func(lane int) { sig[lane] = mySigma[ts.Group(lane)] })
				ts.SIMDRange(start, end, func(j []int32) {
					w.LoadI32(dg.Col, j, nbr)
					w.AtomicCASI32(levels, nbr, unvisited, next, old)
					w.If(func(lane int) bool { return old[lane] == Unvisited }, func() {
						w.AtomicAddI32(discovered, zero, one, nil)
					}, nil)
					// Edge contributes iff the head sits exactly one level
					// deeper (old holds the head's level, or Unvisited if we
					// just discovered it).
					w.If(func(lane int) bool {
						return old[lane] == Unvisited || old[lane] == cur+1
					}, func() {
						w.AtomicAddF32(sigma, nbr, sig, nil)
					}, nil)
				})
			})
		})
	}
}

// bcBackwardKernel accumulates dependencies for vertices at level dep:
// delta[v] = sum over successors w at dep+1 of sigma[v]/sigma[w]*(1+delta[w]).
// delta[v] is owned by v's virtual warp, so no atomics are needed.
func bcBackwardKernel(dg *DeviceGraph, levels *simt.BufI32, sigma, delta *simt.BufF32, dep int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			lvl := make([]int32, g)
			ts.LoadI32Grouped(levels, ts.Task, lvl)
			ts.Mask(func(gi int) bool { return lvl[gi] == dep }, func() {
				mySigma := make([]float32, g)
				ts.LoadF32Grouped(sigma, ts.Task, mySigma)
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
				acc := w.VecF32()
				w.Apply(1, func(lane int) { acc[lane] = 0 })
				nbr := w.VecI32()
				nl := w.VecI32()
				nsig := w.VecF32()
				ndel := w.VecF32()
				ts.SIMDRange(start, end, func(j []int32) {
					w.LoadI32(dg.Col, j, nbr)
					w.LoadI32(levels, nbr, nl)
					w.If(func(lane int) bool { return nl[lane] == dep+1 }, func() {
						w.LoadF32(sigma, nbr, nsig)
						w.LoadF32(delta, nbr, ndel)
						w.Apply(2, func(lane int) {
							if nsig[lane] > 0 {
								acc[lane] += mySigma[ts.Group(lane)] / nsig[lane] * (1 + ndel[lane])
							}
						})
					}, nil)
				})
				sums := make([]float32, g)
				ts.ReduceAddF32(acc, sums)
				ts.StoreF32Grouped(delta, ts.Task, sums, nil)
			})
		})
	}
}

// bcAccumulateKernel folds the per-source dependencies into the running BC
// scores (skipping the source itself).
func bcAccumulateKernel(n int, src int32, delta, bc *simt.BufF32) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			w.If(func(lane int) bool { return idx[lane] != src }, func() {
				dv := w.VecF32()
				cur := w.VecF32()
				w.LoadF32(delta, idx, dv)
				w.LoadF32(bc, idx, cur)
				w.Apply(1, func(lane int) { cur[lane] += dv[lane] })
				w.StoreF32(bc, idx, cur)
			}, nil)
			w.Apply(1, func(lane int) { idx[lane] += stride })
		})
	}
}

// BetweennessCentralityCPU is the host Brandes oracle for the same sources,
// in float64 for a tight reference.
func BetweennessCentralityCPU(g *graph.CSR, sources []graph.VertexID) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	queue := make([]graph.VertexID, 0, n)
	stack := make([]graph.VertexID, 0, n)
	for _, s := range sources {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		dist[s] = 0
		sigma[s] = 1
		queue = queue[:0]
		stack = stack[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			v := stack[i]
			for _, w := range g.Neighbors(v) {
				if dist[w] == dist[v]+1 && sigma[w] > 0 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if v != s {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}
