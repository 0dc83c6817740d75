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
	r, err := newRun[*SpMVResult](d, &res.Result, &opts)
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
	var counter *simt.BufI32
	if opts.Dynamic {
		counter = r.i32("spmv.counter", 1)
	}
	r.round = func() (bool, error) {
		return true, r.launch(r.grid(n), spmvKernel(dg, dVals, dX, dY, counter, opts), "SpMV")
	}
	r.result = func() *SpMVResult {
		res.Y = append([]float32(nil), dY.Data()...)
		return res
	}
	return r, nil
}

// spmvKernel writes dY = A·dX, one row per virtual warp, for the matrix with
// dg's sparsity pattern and the nonzeros dVals.
func spmvKernel(dg *DeviceGraph, dVals, dX, dY *simt.BufF32, counter *simt.BufI32, opts Options) simt.Kernel {
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
			acc := w.VecF32()
			w.FillF32(acc, 0)
			col := w.VecI32()
			av := w.VecF32()
			xv := w.VecF32()
			ts.SIMDRange(start, end, func(j []int32) {
				w.LoadI32(dg.Col, j, col)
				w.LoadF32(dVals, j, av)
				w.LoadF32(dX, col, xv)
				w.MulAddF32(acc, av, xv)
			})
			sums := make([]float32, g)
			ts.ReduceAddF32(acc, sums)
			ts.StoreF32Grouped(dY, ts.Task, sums, nil)
		}
		if counter != nil {
			vwarp.ForEachDynamic(w, opts.K, int32(n), counter, opts.Chunk, body)
		} else {
			vwarp.ForEachStatic(w, opts.K, int32(n), body)
		}
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
