package gpualgo

import (
	"fmt"

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

// CCRun is an open-loop min-label propagation run: each Step is one
// propagation round. Host-side progress advances only when a step succeeds,
// so a supervisor can restore State after a failure and retry the same
// round (see internal/resilient).
type CCRun struct {
	// Launch supervises every kernel launch of the run.
	Launch simt.LaunchOpts

	d       *simt.Device
	dg      *DeviceGraph
	opts    Options
	labels  *simt.BufI32
	changed *simt.BufI32
	counter *simt.BufI32
	lc      simt.LaunchConfig
	maxIter int
	res     *CCResult
	done    bool
}

// NewCCRun validates the inputs and allocates device state for a
// connected-components run, without launching anything yet.
func NewCCRun(d *simt.Device, dg *DeviceGraph, opts Options) (*CCRun, error) {
	opts = opts.withDefaults(d)
	if err := opts.validate(d); err != nil {
		return nil, err
	}
	n := dg.NumVertices
	r := &CCRun{d: d, dg: dg, opts: opts, res: &CCResult{}}
	r.labels = d.AllocI32("cc.labels", n)
	for i := range r.labels.Data() {
		r.labels.Data()[i] = int32(i)
	}
	r.changed = d.AllocI32("cc.changed", 1)
	if opts.Dynamic {
		r.counter = d.AllocI32("cc.counter", 1)
	}
	r.res.Stats.WarpWidth = d.Config().WarpWidth
	r.maxIter = opts.MaxIterations
	if r.maxIter == 0 {
		r.maxIter = n + 1
	}
	r.lc = opts.grid(d, n)
	return r, nil
}

// Step runs one propagation round. It returns done=true once a round
// changes no label or the iteration cap is hit. On error no host state
// advances: the same round can be retried after restoring State.
func (r *CCRun) Step() (bool, error) {
	if r.done {
		return true, nil
	}
	r.changed.Data()[0] = 0
	if r.counter != nil {
		r.counter.Data()[0] = 0
	}
	kernel := ccPropagateKernel(r.dg, r.labels, r.changed, r.counter, r.opts)
	stats, err := r.d.LaunchWith(r.lc, r.Launch, kernel)
	if err != nil {
		return false, fmt.Errorf("gpualgo: CC round %d: %w", r.res.Iterations, err)
	}
	r.res.Stats.Add(stats)
	r.res.Launches++
	r.res.Iterations++
	if r.changed.Data()[0] == 0 || r.res.Iterations >= r.maxIter {
		r.done = true
	}
	return r.done, nil
}

// State returns the device buffers a supervisor must snapshot to make Step
// retryable (CC state plus the uploaded graph).
func (r *CCRun) State() RunState {
	st := RunState{I32: []*simt.BufI32{r.labels, r.changed}}
	if r.counter != nil {
		st.I32 = append(st.I32, r.counter)
	}
	graphState(&st, r.dg)
	return st
}

// Iterations returns the number of completed propagation rounds.
func (r *CCRun) Iterations() int { return r.res.Iterations }

// Result finalizes and returns the run's output. Call it after Step reports
// done (calling earlier returns the labels converged so far).
func (r *CCRun) Result() *CCResult {
	r.res.Labels = append([]int32(nil), r.labels.Data()...)
	return r.res
}

// ConnectedComponents runs min-label propagation on the device: labels start
// as vertex ids; every round each vertex pushes its label to its neighbors
// with atomicMin, until a round changes nothing. For weakly-connected
// components on a directed graph, upload the symmetrized graph.
func ConnectedComponents(d *simt.Device, dg *DeviceGraph, opts Options) (*CCResult, error) {
	r, err := NewCCRun(d, dg, opts)
	if err != nil {
		return nil, err
	}
	if err := finish(r); err != nil {
		return nil, err
	}
	return r.Result(), nil
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
