package gpualgo

import (
	"fmt"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// SSSPResult is the output of a device shortest-paths run.
type SSSPResult struct {
	Result
	// Dist holds each vertex's distance from the source
	// (cpualgo.InfDist if unreachable).
	Dist []int32
}

// NewSSSPRun validates the inputs and allocates device state for a
// Bellman-Ford run from src, without launching anything yet. Each Step
// relaxes every finite vertex's out-edges once; the run is done at fixpoint
// or after |V|+1 rounds.
func NewSSSPRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*Run[*SSSPResult], error) {
	res := &SSSPResult{}
	r, err := newRun[*SSSPResult](d, &res.Result, &opts, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	if dg.Weights == nil {
		return nil, fmt.Errorf("gpualgo: SSSP requires a weighted graph (UploadWeighted)")
	}
	if src < 0 || int(src) >= dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: SSSP source %d out of range [0,%d)", src, dg.NumVertices)
	}
	n := dg.NumVertices
	r.graph(dg)
	dist := r.i32("sssp.dist", n)
	dist.Fill(cpualgo.InfDist)
	dist.Data()[src] = 0
	changed := r.i32("sssp.changed", 1)
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if err := r.launch(lc, ssspRelaxKernel(dg, dist, changed, r.sched, opts), "SSSP round %d", res.Iterations); err != nil {
			return false, err
		}
		return changed.Data()[0] == 0 || res.Iterations+1 >= n+1, nil
	}
	r.result = func() *SSSPResult {
		res.Dist = append([]int32(nil), dist.Data()...)
		return res
	}
	return r, nil
}

// SSSP runs Bellman-Ford-style iterative relaxation on the device: every
// round, each vertex with a finite distance relaxes its out-edges with
// atomicMin, until a round changes nothing. The virtual warp-centric mapping
// applies exactly as in BFS: the SISD phase reads the vertex's distance and
// row pointers, the SIMD phase strides the edge list.
func SSSP(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*SSSPResult, error) {
	return complete(NewSSSPRun(d, dg, src, opts))
}

func ssspRelaxKernel(dg *DeviceGraph, dist, changed *simt.BufI32, sched vwarp.Schedule, opts Options) simt.Kernel {
	var cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cEdges = m.Counter(MetricSSSPEdges, "SSSP edges relaxed.")
	}
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			// Registers are not zeroed, and the edge counter below reads
			// every valid group's slot, also one the load skips.
			dv := w.VecI32()[:g]
			clear(dv)
			ts.LoadI32Grouped(dist, ts.Task, dv)
			ts.Mask(func(gi int) bool { return dv[gi] < cpualgo.InfDist }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				if cEdges != nil {
					var eg int64
					for gi := 0; gi < g; gi++ {
						if ts.Valid(gi) && dv[gi] < cpualgo.InfDist {
							eg += int64(ts.End[gi] - ts.Start[gi])
						}
					}
					if eg > 0 {
						cEdges.Add(w.SMID(), eg)
					}
				}
				wt := w.VecI32()
				cand := w.VecI32()
				old := w.VecI32()
				zero := w.ConstI32(0)
				one := w.ConstI32(1)
				ts.Edges(dg.Col, func(j, nbr []int32) {
					w.LoadI32(dg.Weights, j, wt)
					w.Apply(1, func(lane int) { cand[lane] = dv[ts.Group(lane)] + wt[lane] })
					w.AtomicMinI32(dist, nbr, cand, old)
					w.If(func(lane int) bool { return cand[lane] < old[lane] }, func() {
						w.StoreI32(changed, zero, one)
					}, nil)
				})
			})
		})
	}
}
