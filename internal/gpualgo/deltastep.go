package gpualgo

import (
	"fmt"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// DeltaSteppingOptions tune the bucketed SSSP.
type DeltaSteppingOptions struct {
	Options
	// Delta is the bucket width (default: average edge weight, estimated
	// from the uploaded weights).
	Delta int32
}

// DeltaStepping runs the near-far variant of delta-stepping SSSP on the
// device (Davidson et al.'s GPU formulation): a near worklist holds vertices
// whose tentative distance falls under the current threshold and is relaxed
// repeatedly; improvements beyond the threshold pile into a far list that is
// re-filtered each time the threshold advances by Delta. Compared with the
// Bellman-Ford kernel (SSSP), it touches only active vertices instead of
// scanning all |V| every round — the classic work-efficiency trade against
// extra queue atomics.
func DeltaStepping(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts DeltaSteppingOptions) (*SSSPResult, error) {
	return complete(newDeltaSteppingRun(d, dg, src, opts))
}

// newDeltaSteppingRun builds a delta-stepping run whose rounds are phases:
// a relaxation of the near list, or, once it drains, a threshold advance
// that re-filters the far pile. It fails after 64*(|V|+2) phases.
func newDeltaSteppingRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts DeltaSteppingOptions) (*Run[*SSSPResult], error) {
	res := &SSSPResult{}
	r, err := newRun[*SSSPResult](d, &res.Result, &opts.Options, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	if dg.Weights == nil {
		return nil, fmt.Errorf("gpualgo: delta-stepping requires a weighted graph (UploadWeighted)")
	}
	if src < 0 || int(src) >= dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: delta-stepping source %d out of range [0,%d)", src, dg.NumVertices)
	}
	if opts.Delta == 0 {
		var sum int64
		for _, w := range dg.Weights.Data() {
			sum += int64(w)
		}
		if m := int64(dg.NumEdges); m > 0 {
			opts.Delta = int32(sum/m) + 1
		} else {
			opts.Delta = 1
		}
	}
	if opts.Delta < 1 {
		return nil, fmt.Errorf("gpualgo: delta %d must be >= 1", opts.Delta)
	}

	n := dg.NumVertices
	r.graph(dg)
	capQueue := 4*dg.NumEdges + n + 64
	dist := r.i32("ds.dist", n)
	dist.Fill(cpualgo.InfDist)
	dist.Data()[src] = 0
	near := r.i32("ds.near", capQueue)
	nearNext := r.i32("ds.nearNext", capQueue)
	far := r.i32("ds.far", capQueue)
	farNext := r.i32("ds.farNext", capQueue)
	counts := r.i32("ds.counts", 3) // 0: nearNext, 1: farNext, 2: unused

	near.Data()[0] = int32(src)
	nearLen, farLen := 1, 0
	threshold := opts.Delta
	maxPhases := 64 * (n + 2)
	r.round = func() (bool, error) {
		counts.Data()[0] = 0
		counts.Data()[1] = 0
		var newNear, newFar int
		if nearLen == 0 {
			// Advance the threshold and re-filter the far pile.
			k := dsFilterKernel(dist, far, nearNext, farNext, counts, int32(farLen), threshold+opts.Delta, r.sched)
			if err := r.launch(r.grid(farLen), k, "delta-stepping filter"); err != nil {
				return false, err
			}
			newNear, newFar = int(counts.Data()[0]), int(counts.Data()[1])
		} else {
			k := dsRelaxKernel(dg, dist, near, nearNext, far, counts, int32(nearLen), int32(farLen), threshold, r.sched)
			if err := r.launch(r.grid(nearLen), k, "delta-stepping relax"); err != nil {
				return false, err
			}
			newNear, newFar = int(counts.Data()[0]), farLen+int(counts.Data()[1])
		}
		if newNear > capQueue || newFar > capQueue {
			return false, fmt.Errorf("gpualgo: delta-stepping queue overflow")
		}
		if res.Iterations+1 >= maxPhases {
			return false, fmt.Errorf("gpualgo: delta-stepping exceeded %d phases", maxPhases)
		}
		if nearLen == 0 {
			threshold += opts.Delta
			far, farNext = farNext, far
		}
		near, nearNext = nearNext, near
		nearLen, farLen = newNear, newFar
		return nearLen == 0 && farLen == 0, nil
	}
	r.result = func() *SSSPResult {
		res.Dist = append([]int32(nil), dist.Data()...)
		return res
	}
	return r, nil
}

// dsRelaxKernel processes the near worklist: each entry still under the
// threshold relaxes its out-edges; improvements land in nearNext (under
// threshold) or are appended to the far pile (beyond it).
func dsRelaxKernel(dg *DeviceGraph, dist, near, nearNext, far, counts *simt.BufI32, nearLen, farBase, threshold int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, nearLen, func(ts *vwarp.Tasks) {
			g := ts.Groups
			// Indirect through the worklist; stale entries (already settled
			// under an earlier threshold or re-improved) still relax
			// correctly — relaxation is idempotent — but entries at or past
			// the threshold wait for a later phase.
			ts.LoadI32Grouped(near, ts.Task, ts.Task)
			dv := make([]int32, g)
			ts.LoadI32Grouped(dist, ts.Task, dv)
			ts.Mask(func(gi int) bool { return dv[gi] < threshold }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				wt := w.VecI32()
				cand := w.VecI32()
				old := w.VecI32()
				slot := w.VecI32()
				zero := w.ConstI32(0)
				oneIdx := w.ConstI32(1)
				one := w.ConstI32(1)
				ts.Edges(dg.Col, func(j, nbr []int32) {
					w.LoadI32(dg.Weights, j, wt)
					w.Apply(1, func(lane int) { cand[lane] = dv[ts.Group(lane)] + wt[lane] })
					w.AtomicMinI32(dist, nbr, cand, old)
					w.If(func(lane int) bool { return cand[lane] < old[lane] }, func() {
						w.If(func(lane int) bool { return cand[lane] < threshold }, func() {
							w.AtomicAddI32(counts, zero, one, slot)
							w.StoreI32(nearNext, slot, nbr)
						}, func() {
							w.AtomicAddI32(counts, oneIdx, one, slot)
							w.Apply(1, func(lane int) { slot[lane] += farBase })
							w.StoreI32(far, slot, nbr)
						})
					}, nil)
				})
			})
		})
	}
}

// dsFilterKernel re-buckets the far pile after a threshold advance: entries
// now under the threshold move to the near list, the rest stay far.
func dsFilterKernel(dist, far, nearNext, farNext, counts *simt.BufI32, farLen, threshold int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, farLen, func(ts *vwarp.Tasks) {
			g := ts.Groups
			ts.LoadI32Grouped(far, ts.Task, ts.Task)
			dv := make([]int32, g)
			ts.LoadI32Grouped(dist, ts.Task, dv)
			zeros := make([]int32, g)
			ones := make([]int32, g)
			oneIdx := make([]int32, g)
			for gi := range ones {
				ones[gi] = 1
				oneIdx[gi] = 1
			}
			slot := make([]int32, g)
			ts.Mask(func(gi int) bool { return dv[gi] < threshold }, func() {
				ts.AtomicAddGrouped(counts, zeros, ones, slot, nil)
				ts.StoreI32Grouped(nearNext, slot, ts.Task, nil)
			})
			ts.Mask(func(gi int) bool { return dv[gi] >= threshold && dv[gi] < cpualgo.InfDist }, func() {
				ts.AtomicAddGrouped(counts, oneIdx, ones, slot, nil)
				ts.StoreI32Grouped(farNext, slot, ts.Task, nil)
			})
		})
	}
}
