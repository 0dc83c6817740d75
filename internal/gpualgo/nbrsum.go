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
	r, err := newRun[*NeighborSumResult](d, &res.Result, &opts)
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
	var counter *simt.BufI32
	if opts.Dynamic {
		counter = r.i32("nbrsum.counter", 1)
	}
	r.round = func() (bool, error) {
		return true, r.launch(r.grid(n), nbrsumKernel(dg, dVals, out, counter, opts), "neighbor sum")
	}
	r.result = func() *NeighborSumResult {
		res.Sums = append([]int32(nil), out.Data()...)
		return res
	}
	return r, nil
}

// nbrsumKernel writes out[v] = sum of dVals[u] over v's out-neighbors u.
func nbrsumKernel(dg *DeviceGraph, dVals, out, counter *simt.BufI32, opts Options) simt.Kernel {
	n := dg.NumVertices
	return func(w *simt.WarpCtx) {
		body := func(ts *vwarp.Tasks) {
			g := ts.Groups
			start := make([]int32, g)
			end := make([]int32, g)
			taskP1 := make([]int32, g)
			ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
			ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
			ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
			acc := w.VecI32()
			w.FillI32(acc, 0)
			nbr := w.VecI32()
			val := w.VecI32()
			ts.SIMDRange(start, end, func(j []int32) {
				w.LoadI32(dg.Col, j, nbr)
				w.LoadI32(dVals, nbr, val)
				w.AddI32(acc, acc, val)
			})
			sums := make([]int32, g)
			ts.ReduceAddI32(acc, sums)
			ts.StoreI32Grouped(out, ts.Task, sums, nil)
		}
		if counter != nil {
			vwarp.ForEachDynamic(w, opts.K, int32(n), counter, opts.Chunk, body)
		} else {
			vwarp.ForEachStatic(w, opts.K, int32(n), body)
		}
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
