package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// SpMVResult is the output of a sparse matrix-vector multiply.
type SpMVResult struct {
	Result
	// Y is the product vector (one entry per matrix row / graph vertex).
	Y []float32
}

// SpMV computes y = A·x for the CSR matrix whose sparsity pattern is dg and
// whose nonzero values are vals (aligned with dg.Col). This is the kernel
// family the paper generalizes: Options.K = 1 reproduces scalar CSR SpMV
// (one thread per row, Bell & Garland's "CSR (scalar)"), K = warp width the
// vector CSR kernel ("CSR (vector)": a warp cooperatively reduces one row),
// and intermediate K interpolates between them — exactly the virtual-warp
// spectrum.
func SpMV(d *simt.Device, dg *DeviceGraph, vals []float32, x []float32, opts Options) (*SpMVResult, error) {
	return complete(newSpMVRun(d, dg, vals, x, opts))
}

// newSpMVRun builds a one-round run: a single launch.
func newSpMVRun(d *simt.Device, dg *DeviceGraph, vals []float32, x []float32, opts Options) (*Run[*SpMVResult], error) {
	res := &SpMVResult{}
	r, err := newRun[*SpMVResult](d, &res.Result, &opts, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	if len(vals) != dg.NumEdges {
		return nil, fmt.Errorf("gpualgo: %d values for %d nonzeros", len(vals), dg.NumEdges)
	}
	if len(x) != dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: x has %d entries for %d rows", len(x), dg.NumVertices)
	}
	n := dg.NumVertices
	r.graph(dg)
	dVals := r.uploadF32("spmv.vals", vals)
	dX := r.uploadF32("spmv.x", x)
	dY := r.f32("spmv.y", n)
	r.round = func() (bool, error) {
		return true, r.launch(r.grid(n), spmvKernel(dg, dVals, dX, dY, r.sched), "SpMV")
	}
	r.result = func() *SpMVResult {
		res.Y = append([]float32(nil), dY.Data()...)
		return res
	}
	return r, nil
}

// spmvKernel writes dY = A·dX, one row per virtual warp, for the matrix with
// dg's sparsity pattern and the nonzeros dVals.
func spmvKernel(dg *DeviceGraph, dVals, dX, dY *simt.BufF32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			ts.Row(dg.RowPtr, ts.Task)
			acc := w.VecF32()
			w.FillF32(acc, 0)
			av := w.VecF32()
			xv := w.VecF32()
			ts.Edges(dg.Col, func(j, col []int32) {
				w.LoadF32(dVals, j, av)
				w.LoadF32(dX, col, xv)
				w.MulAddF32(acc, av, xv)
			})
			sums := make([]float32, ts.Groups)
			ts.ReduceAddF32(acc, sums)
			ts.StoreF32Grouped(dY, ts.Task, sums, nil)
		})
	}
}

// SpMVCPU is the host oracle for SpMV. Note the device reduces each row in
// strided-lane order while this sums in index order, so float32 results can
// differ in the last ulps; compare with a tolerance.
func SpMVCPU(g *graph.CSR, vals []float32, x []float32) []float32 {
	n := g.NumVertices()
	y := make([]float32, n)
	for v := 0; v < n; v++ {
		var sum float32
		row := g.RowPtr[v]
		for i, c := range g.Neighbors(graph.VertexID(v)) {
			sum += vals[int(row)+i] * x[c]
		}
		y[v] = sum
	}
	return y
}
