package gpualgo

import (
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// CCResult is the output of a device connected-components run.
type CCResult struct {
	Result
	// Labels maps each vertex to its component label: the minimum vertex id
	// in the component.
	Labels []int32
}

// NewCCRun validates the inputs and allocates device state for a
// connected-components run, without launching anything yet. Each Step is
// one propagation round; the run is done once a round changes no label or
// after |V|+1 rounds.
func NewCCRun(d *simt.Device, dg *DeviceGraph, opts Options) (*Run[*CCResult], error) {
	res := &CCResult{}
	r, err := newRun[*CCResult](d, &res.Result, &opts)
	if err != nil {
		return nil, err
	}
	n := dg.NumVertices
	r.graph(dg)
	labels := r.i32("cc.labels", n)
	for i := range labels.Data() {
		labels.Data()[i] = int32(i)
	}
	changed := r.i32("cc.changed", 1)
	var counter *simt.BufI32
	if opts.Dynamic {
		counter = r.i32("cc.counter", 1)
	}
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if counter != nil {
			counter.Data()[0] = 0
		}
		if err := r.launch(lc, ccPropagateKernel(dg, labels, changed, counter, opts), "CC round %d", res.Iterations); err != nil {
			return false, err
		}
		return changed.Data()[0] == 0 || res.Iterations+1 >= n+1, nil
	}
	r.result = func() *CCResult {
		res.Labels = append([]int32(nil), labels.Data()...)
		return res
	}
	return r, nil
}

// ConnectedComponents runs min-label propagation on the device: labels start
// as vertex ids; every round each vertex pushes its label to its neighbors
// with atomicMin, until a round changes nothing. For weakly-connected
// components on a directed graph, upload the symmetrized graph.
func ConnectedComponents(d *simt.Device, dg *DeviceGraph, opts Options) (*CCResult, error) {
	return complete(NewCCRun(d, dg, opts))
}

func ccPropagateKernel(dg *DeviceGraph, labels, changed, counter *simt.BufI32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		body := func(ts *vwarp.Tasks) {
			g := ts.Groups
			lbl := make([]int32, g)
			ts.LoadI32Grouped(labels, ts.Task, lbl)
			start := make([]int32, g)
			end := make([]int32, g)
			taskP1 := make([]int32, g)
			ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
			ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
			ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
			nbr := w.VecI32()
			mine := w.VecI32()
			old := w.VecI32()
			zero := w.ConstI32(0)
			one := w.ConstI32(1)
			w.Apply(1, func(lane int) { mine[lane] = lbl[ts.Group(lane)] })
			ts.SIMDRange(start, end, func(j []int32) {
				w.LoadI32(dg.Col, j, nbr)
				w.AtomicMinI32(labels, nbr, mine, old)
				w.If(func(lane int) bool { return mine[lane] < old[lane] }, func() {
					w.StoreI32(changed, zero, one)
				}, nil)
			})
		}
		if counter != nil {
			vwarp.ForEachDynamic(w, opts.K, int32(dg.NumVertices), counter, opts.Chunk, body)
		} else {
			vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), body)
		}
	}
}
