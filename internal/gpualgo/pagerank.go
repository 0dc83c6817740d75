package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// PageRankResult is the output of a device PageRank run.
type PageRankResult struct {
	Result
	// Ranks is the final rank vector (sums to ~1).
	Ranks []float32
}

// PageRankOptions extends Options with the power-iteration parameters.
type PageRankOptions struct {
	Options
	// Damping factor (default 0.85).
	Damping float32
	// Iterations of power iteration to run (default 20, as in GPU
	// benchmarking practice: fixed-iteration comparison).
	Iterations int
	// Tolerance stops DeltaPageRank early when the L1 step delta falls
	// below it (default 1e-6 there). PageRank ignores it: the full run
	// keeps the fixed-iteration contract.
	Tolerance float32
}

// PageRankRun is an open-loop power-iteration run: each Step performs one
// full iteration (contribution kernel then pull kernel). The rank/next swap
// happens only after both launches succeed, so a supervisor can restore
// State after a failure and retry the same iteration.
type PageRankRun struct {
	// Launch supervises every kernel launch of the run.
	Launch simt.LaunchOpts

	d       *simt.Device
	opts    PageRankOptions
	dgRev   *DeviceGraph
	outDeg  []int32
	dOutDeg *simt.BufI32
	rank    *simt.BufF32
	contrib *simt.BufF32
	next    *simt.BufF32
	n       int
	lc      simt.LaunchConfig
	res     *PageRankResult
	done    bool
}

// NewPageRankRun validates the inputs, builds the reverse graph, and
// allocates device state, without launching anything yet.
func NewPageRankRun(d *simt.Device, g *graph.CSR, opts PageRankOptions) (*PageRankRun, error) {
	opts.Options = opts.Options.withDefaults(d)
	if err := opts.Options.validate(d); err != nil {
		return nil, err
	}
	if opts.Damping == 0 {
		opts.Damping = 0.85
	}
	if opts.Damping < 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("gpualgo: damping %f outside [0,1)", opts.Damping)
	}
	if opts.Iterations == 0 {
		opts.Iterations = 20
	}
	n := g.NumVertices()
	r := &PageRankRun{d: d, opts: opts, n: n, res: &PageRankResult{}}
	r.res.Stats.WarpWidth = d.Config().WarpWidth
	if n == 0 {
		r.done = true
		return r, nil
	}
	rev := g.Reverse()
	r.dgRev = Upload(d, rev)
	r.outDeg = make([]int32, n)
	for v := 0; v < n; v++ {
		r.outDeg[v] = g.Degree(graph.VertexID(v))
	}
	r.dOutDeg = d.UploadI32("pr.outdeg", r.outDeg)
	r.rank = d.AllocF32("pr.rank", n)
	r.contrib = d.AllocF32("pr.contrib", n)
	r.next = d.AllocF32("pr.next", n)
	r.rank.Fill(1 / float32(n))
	r.lc = opts.grid(d, n)
	return r, nil
}

// Step runs one power iteration (two kernel launches). On error no host
// state advances and the rank/next buffers are not swapped, so the same
// iteration can be retried after restoring State.
func (r *PageRankRun) Step() (bool, error) {
	if r.done {
		return true, nil
	}
	// Host-side dangling-mass reduction (stand-in for the standard tiny
	// reduction kernel; not counted in device cycles, matching how CUDA
	// codes usually exclude it or find it negligible).
	var dangling float32
	for v := 0; v < r.n; v++ {
		if r.outDeg[v] == 0 {
			dangling += r.rank.Data()[v]
		}
	}
	base := (1-r.opts.Damping)/float32(r.n) + r.opts.Damping*dangling/float32(r.n)

	iter := r.res.Iterations
	stats, err := r.d.LaunchWith(r.lc, r.Launch, prContribKernel(r.n, r.rank, r.contrib, r.dOutDeg))
	if err != nil {
		return false, fmt.Errorf("gpualgo: PageRank contrib iter %d: %w", iter, err)
	}
	pstats, err := r.d.LaunchWith(r.lc, r.Launch, prPullKernel(r.dgRev, r.contrib, r.next, base, r.opts))
	if err != nil {
		return false, fmt.Errorf("gpualgo: PageRank pull iter %d: %w", iter, err)
	}
	stats.Add(pstats)
	r.res.Stats.Add(stats)
	r.res.Launches += 2
	r.res.Iterations++
	r.rank, r.next = r.next, r.rank
	if r.res.Iterations >= r.opts.Iterations {
		r.done = true
	}
	return r.done, nil
}

// State returns the device buffers a supervisor must snapshot to make Step
// retryable (rank vectors, out-degrees, and the reverse graph).
func (r *PageRankRun) State() RunState {
	if r.n == 0 {
		return RunState{}
	}
	st := RunState{
		I32: []*simt.BufI32{r.dOutDeg},
		F32: []*simt.BufF32{r.rank, r.contrib, r.next},
	}
	graphState(&st, r.dgRev)
	return st
}

// Iterations returns the number of completed power iterations.
func (r *PageRankRun) Iterations() int { return r.res.Iterations }

// Result finalizes and returns the run's output.
func (r *PageRankRun) Result() *PageRankResult {
	if r.n > 0 {
		r.res.Ranks = append([]float32(nil), r.rank.Data()...)
	}
	return r.res
}

// PageRank runs pull-based power iteration on the device. Each vertex pulls
// contributions rank[u]/outdeg[u] from its in-neighbors (the reverse graph's
// adjacency list), so the virtual warp-centric trade-off applies to the
// in-degree distribution. Two kernels alternate per iteration: a contribution
// kernel (contrib[u] = rank[u]/outdeg[u], perfectly regular) and the pull
// kernel (irregular — where the paper's method matters). Dangling mass is
// folded in host-side between iterations, as CUDA implementations do with a
// small reduction kernel.
func PageRank(d *simt.Device, g *graph.CSR, opts PageRankOptions) (*PageRankResult, error) {
	r, err := NewPageRankRun(d, g, opts)
	if err != nil {
		return nil, err
	}
	if err := finish(r); err != nil {
		return nil, err
	}
	return r.Result(), nil
}

// prContribKernel computes contrib[v] = rank[v]/outdeg[v] (0 for dangling
// vertices) — a perfectly coalesced elementwise kernel.
func prContribKernel(n int, rank, contrib *simt.BufF32, outDeg *simt.BufI32) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			r := w.VecF32()
			d := w.VecI32()
			c := w.VecF32()
			w.LoadF32(rank, idx, r)
			w.LoadI32(outDeg, idx, d)
			w.Apply(1, func(lane int) {
				if d[lane] > 0 {
					c[lane] = r[lane] / float32(d[lane])
				} else {
					c[lane] = 0
				}
			})
			w.StoreF32(contrib, idx, c)
			w.AddConstI32(idx, stride)
		})
	}
}

// prPullKernel computes next[v] = base + d * sum_{u in in(v)} contrib[u]
// with one virtual warp per vertex.
func prPullKernel(dgRev *DeviceGraph, contrib, next *simt.BufF32, base float32, opts PageRankOptions) simt.Kernel {
	var cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cEdges = m.Counter(MetricPREdges, "PageRank in-edges pulled.")
	}
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dgRev.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			start := make([]int32, g)
			end := make([]int32, g)
			taskP1 := make([]int32, g)
			ts.LoadI32Grouped(dgRev.RowPtr, ts.Task, start)
			ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
			ts.LoadI32Grouped(dgRev.RowPtr, taskP1, end)
			if cEdges != nil {
				var eg int64
				for gi := 0; gi < g; gi++ {
					if ts.Valid(gi) {
						eg += int64(end[gi] - start[gi])
					}
				}
				if eg > 0 {
					cEdges.Add(w.SMID(), eg)
				}
			}
			acc := w.VecF32()
			w.FillF32(acc, 0)
			nbr := w.VecI32()
			c := w.VecF32()
			ts.SIMDRange(start, end, func(j []int32) {
				w.LoadI32(dgRev.Col, j, nbr)
				w.LoadF32(contrib, nbr, c)
				w.AddF32(acc, acc, c)
			})
			sums := make([]float32, g)
			ts.ReduceAddF32(acc, sums)
			vals := make([]float32, g)
			ts.SISD(1, func(gi int) { vals[gi] = base + opts.Damping*sums[gi] })
			ts.StoreF32Grouped(next, ts.Task, vals, nil)
		})
	}
}
