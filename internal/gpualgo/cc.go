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
	r, err := newRun[*CCResult](d, &res.Result, &opts, dg.NumVertices)
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
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if err := r.launch(lc, ccPropagateKernel(dg, labels, changed, r.sched), "CC round %d", res.Iterations); err != nil {
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

func ccPropagateKernel(dg *DeviceGraph, labels, changed *simt.BufI32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			lbl := w.VecI32()[:ts.Groups]
			ts.LoadI32Grouped(labels, ts.Task, lbl)
			ts.Row(dg.RowPtr, ts.Task)
			mine := w.VecI32()
			old := w.VecI32()
			zero := w.ConstI32(0)
			one := w.ConstI32(1)
			w.Apply(1, func(lane int) { mine[lane] = lbl[ts.Group(lane)] })
			ts.Edges(dg.Col, func(_, nbr []int32) {
				w.AtomicMinI32(labels, nbr, mine, old)
				w.If(func(lane int) bool { return mine[lane] < old[lane] }, func() {
					w.StoreI32(changed, zero, one)
				}, nil)
			})
		})
	}
}
