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

// SSSPRun is an open-loop Bellman-Ford run: each Step relaxes every finite
// vertex's out-edges once. Host-side progress advances only when a step
// succeeds, so a supervisor can restore State after a failure and retry the
// same round.
type SSSPRun struct {
	// Launch supervises every kernel launch of the run.
	Launch simt.LaunchOpts

	d       *simt.Device
	dg      *DeviceGraph
	opts    Options
	dist    *simt.BufI32
	changed *simt.BufI32
	counter *simt.BufI32
	lc      simt.LaunchConfig
	maxIter int
	res     *SSSPResult
	done    bool
}

// NewSSSPRun validates the inputs and allocates device state for a
// Bellman-Ford run from src, without launching anything yet.
func NewSSSPRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*SSSPRun, error) {
	opts = opts.withDefaults(d)
	if err := opts.validate(d); err != nil {
		return nil, err
	}
	if dg.Weights == nil {
		return nil, fmt.Errorf("gpualgo: SSSP requires a weighted graph (UploadWeighted)")
	}
	if src < 0 || int(src) >= dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: SSSP source %d out of range [0,%d)", src, dg.NumVertices)
	}
	n := dg.NumVertices
	r := &SSSPRun{d: d, dg: dg, opts: opts, res: &SSSPResult{}}
	r.dist = d.AllocI32("sssp.dist", n)
	r.dist.Fill(cpualgo.InfDist)
	r.dist.Data()[src] = 0
	r.changed = d.AllocI32("sssp.changed", 1)
	if opts.Dynamic {
		r.counter = d.AllocI32("sssp.counter", 1)
	}
	r.res.Stats.WarpWidth = d.Config().WarpWidth
	r.maxIter = opts.MaxIterations
	if r.maxIter == 0 {
		r.maxIter = n + 1
	}
	r.lc = opts.grid(d, n)
	return r, nil
}

// Step runs one relaxation round. It returns done=true at fixpoint or when
// the iteration cap is hit; on error no host state advances.
func (r *SSSPRun) Step() (bool, error) {
	if r.done {
		return true, nil
	}
	r.changed.Data()[0] = 0
	if r.counter != nil {
		r.counter.Data()[0] = 0
	}
	stats, err := r.d.LaunchWith(r.lc, r.Launch, ssspRelaxKernel(r.dg, r.dist, r.changed, r.counter, r.opts))
	if err != nil {
		return false, fmt.Errorf("gpualgo: SSSP round %d: %w", r.res.Iterations, err)
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
// retryable (distances plus the uploaded weighted graph).
func (r *SSSPRun) State() RunState {
	st := RunState{I32: []*simt.BufI32{r.dist, r.changed}}
	if r.counter != nil {
		st.I32 = append(st.I32, r.counter)
	}
	graphState(&st, r.dg)
	return st
}

// Iterations returns the number of completed relaxation rounds.
func (r *SSSPRun) Iterations() int { return r.res.Iterations }

// Result finalizes and returns the run's output.
func (r *SSSPRun) Result() *SSSPResult {
	r.res.Dist = append([]int32(nil), r.dist.Data()...)
	return r.res
}

// SSSP runs Bellman-Ford-style iterative relaxation on the device: every
// round, each vertex with a finite distance relaxes its out-edges with
// atomicMin, until a round changes nothing. The virtual warp-centric mapping
// applies exactly as in BFS: the SISD phase reads the vertex's distance and
// row pointers, the SIMD phase strides the edge list.
func SSSP(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*SSSPResult, error) {
	r, err := NewSSSPRun(d, dg, src, opts)
	if err != nil {
		return nil, err
	}
	if err := finish(r); err != nil {
		return nil, err
	}
	return r.Result(), nil
}

func ssspRelaxKernel(dg *DeviceGraph, dist, changed, counter *simt.BufI32, opts Options) simt.Kernel {
	var cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cEdges = m.Counter(MetricSSSPEdges, "SSSP edges relaxed.")
	}
	return func(w *simt.WarpCtx) {
		body := func(ts *vwarp.Tasks) {
			g := ts.Groups
			dv := make([]int32, g)
			ts.LoadI32Grouped(dist, ts.Task, dv)
			ts.Mask(func(gi int) bool { return dv[gi] < cpualgo.InfDist }, func() {
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
				if cEdges != nil {
					var eg int64
					for gi := 0; gi < g; gi++ {
						if ts.Valid(gi) && dv[gi] < cpualgo.InfDist {
							eg += int64(end[gi] - start[gi])
						}
					}
					if eg > 0 {
						cEdges.Add(w.SMID(), eg)
					}
				}
				nbr := w.VecI32()
				wt := w.VecI32()
				cand := w.VecI32()
				old := w.VecI32()
				zero := w.ConstI32(0)
				one := w.ConstI32(1)
				ts.SIMDRange(start, end, func(j []int32) {
					w.LoadI32(dg.Col, j, nbr)
					w.LoadI32(dg.Weights, j, wt)
					w.Apply(1, func(lane int) { cand[lane] = dv[ts.Group(lane)] + wt[lane] })
					w.AtomicMinI32(dist, nbr, cand, old)
					w.If(func(lane int) bool { return cand[lane] < old[lane] }, func() {
						w.StoreI32(changed, zero, one)
					}, nil)
				})
			})
		}
		if counter != nil {
			vwarp.ForEachDynamic(w, opts.K, int32(dg.NumVertices), counter, opts.Chunk, body)
		} else {
			vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), body)
		}
	}
}
