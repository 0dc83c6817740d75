package gpualgo

import (
	"fmt"

	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// NeighborSumResult is the output of the neighbor-sum microkernel.
type NeighborSumResult struct {
	Result
	// Sums[v] is the sum of values[u] over v's out-neighbors u.
	Sums []int32
}

// NeighborSum computes, for every vertex, the sum of a per-vertex value over
// its out-neighbors — the minimal irregular gather kernel. It is the
// coalescing microbenchmark (experiment E10): a single pass whose
// memory-transaction count isolates the baseline's scattered adjacency reads
// from the warp-centric mapping's coalesced ones, with no algorithmic
// iteration effects mixed in.
func NeighborSum(d *simt.Device, dg *DeviceGraph, values []int32, opts Options) (*NeighborSumResult, error) {
	return complete(newNeighborSumRun(d, dg, values, opts))
}

// newNeighborSumRun builds a one-round run: a single launch.
func newNeighborSumRun(d *simt.Device, dg *DeviceGraph, values []int32, opts Options) (*Run[*NeighborSumResult], error) {
	res := &NeighborSumResult{}
	r, err := newRun[*NeighborSumResult](d, &res.Result, &opts, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	if len(values) != dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: %d values for %d vertices", len(values), dg.NumVertices)
	}
	n := dg.NumVertices
	r.graph(dg)
	dVals := r.uploadI32("nbrsum.values", values)
	out := r.i32("nbrsum.out", n)
	r.round = func() (bool, error) {
		return true, r.launch(r.grid(n), nbrsumKernel(dg, dVals, out, r.sched), "neighbor sum")
	}
	r.result = func() *NeighborSumResult {
		res.Sums = append([]int32(nil), out.Data()...)
		return res
	}
	return r, nil
}

// nbrsumKernel writes out[v] = sum of dVals[u] over v's out-neighbors u.
func nbrsumKernel(dg *DeviceGraph, dVals, out *simt.BufI32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			ts.Row(dg.RowPtr, ts.Task)
			acc := w.VecI32()
			w.FillI32(acc, 0)
			val := w.VecI32()
			ts.Edges(dg.Col, func(_, nbr []int32) {
				w.LoadI32(dVals, nbr, val)
				w.AddI32(acc, acc, val)
			})
			sums := make([]int32, ts.Groups)
			ts.ReduceAddI32(acc, sums)
			ts.StoreI32Grouped(out, ts.Task, sums, nil)
		})
	}
}

// NeighborSumCPU is the host oracle for NeighborSum.
func NeighborSumCPU(rowPtr []int32, col []int32, values []int32) []int32 {
	n := len(rowPtr) - 1
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		var sum int32
		for _, u := range col[rowPtr[v]:rowPtr[v+1]] {
			sum += values[u]
		}
		out[v] = sum
	}
	return out
}
