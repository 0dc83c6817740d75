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
	// Iterations of power iteration to run: PageRank's fixed count
	// (default 20, as in GPU benchmarking practice: fixed-iteration
	// comparison), DeltaPageRank's cap (default 50).
	Iterations int
	// Tolerance stops DeltaPageRank early when the L1 step delta falls
	// below it (default 1e-6 there). PageRank ignores it: the full run
	// keeps the fixed-iteration contract.
	Tolerance float32
}

// NewPageRankRun validates the inputs, builds the reverse graph, and
// allocates device state, without launching anything yet. Each Step performs
// one power iteration (contribution kernel then pull kernel); the rank/next
// swap happens only after both launches succeed.
func NewPageRankRun(d *simt.Device, g *graph.CSR, opts PageRankOptions) (*Run[*PageRankResult], error) {
	return newPageRankRun(d, g, opts, nil, 0)
}

// newPageRankRun is NewPageRankRun started from the ranks init (nil starts
// every rank at 1/n) and, when tol > 0, done as soon as an iteration moves
// the ranks by less than tol in L1 norm.
func newPageRankRun(d *simt.Device, g *graph.CSR, opts PageRankOptions, init []float32, tol float32) (*Run[*PageRankResult], error) {
	res := &PageRankResult{}
	r, err := newRun[*PageRankResult](d, &res.Result, &opts.Options, g.NumVertices())
	if err != nil {
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
	var rank *simt.BufF32
	r.result = func() *PageRankResult {
		if rank != nil {
			res.Ranks = append([]float32(nil), rank.Data()...)
		}
		return res
	}
	n := g.NumVertices()
	if n == 0 {
		r.done = true
		return r, nil
	}
	if init != nil && len(init) != n {
		return nil, fmt.Errorf("gpualgo: %d initial ranks for %d vertices", len(init), n)
	}
	dgRev := r.graph(Upload(d, g.Reverse()))
	outDeg := make([]int32, n)
	for v := 0; v < n; v++ {
		outDeg[v] = g.Degree(graph.VertexID(v))
	}
	dOutDeg := r.uploadI32("pr.outdeg", outDeg)
	rank = r.f32("pr.rank", n)
	contrib := r.f32("pr.contrib", n)
	next := r.f32("pr.next", n)
	if init != nil {
		copy(rank.Data(), init)
	} else {
		rank.Fill(1 / float32(n))
	}
	lc := r.grid(n)
	r.round = func() (bool, error) {
		iter := res.Iterations
		base := prBase(rank.Data(), outDeg, opts.Damping)
		if err := r.launch(lc, prContribKernel(n, rank, contrib, dOutDeg), "PageRank contrib iter %d", iter); err != nil {
			return false, err
		}
		if err := r.launch(lc, prPullKernel(dgRev, contrib, next, base, r.sched, opts), "PageRank pull iter %d", iter); err != nil {
			return false, err
		}
		done := iter+1 >= opts.Iterations || tol > 0 && l1Dist(next.Data(), rank.Data()) < tol
		rank, next = next, rank
		return done, nil
	}
	return r, nil
}

// l1Dist returns the L1 distance between a and b.
func l1Dist(a, b []float32) float32 {
	var sum float32
	for i, x := range a {
		if d := x - b[i]; d < 0 {
			sum -= d
		} else {
			sum += d
		}
	}
	return sum
}

// prBase is the rank every vertex starts an iteration's pull from: the
// teleport share plus the dangling vertices' mass spread evenly. It is a
// host-side reduction (a stand-in for the standard tiny reduction kernel;
// not counted in device cycles, matching how CUDA codes usually exclude it
// or find it negligible).
func prBase(rank []float32, outDeg []int32, damping float32) float32 {
	n := float32(len(rank))
	var dangling float32
	for v, deg := range outDeg {
		if deg == 0 {
			dangling += rank[v]
		}
	}
	return (1-damping)/n + damping*dangling/n
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
	return complete(NewPageRankRun(d, g, opts))
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
func prPullKernel(dgRev *DeviceGraph, contrib, next *simt.BufF32, base float32, sched vwarp.Schedule, opts PageRankOptions) simt.Kernel {
	var cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cEdges = m.Counter(MetricPREdges, "PageRank in-edges pulled.")
	}
	return func(w *simt.WarpCtx) {
		// Registers are taken once per invocation, not per round: the
		// register file is reclaimed only when the invocation returns.
		acc := w.VecF32()
		c := w.VecF32()
		sums := w.VecF32()
		vals := w.VecF32()
		vwarp.ForEach(w, sched, int32(dgRev.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			ts.Row(dgRev.RowPtr, ts.Task)
			if cEdges != nil {
				var eg int64
				for gi := 0; gi < g; gi++ {
					if ts.Valid(gi) {
						eg += int64(ts.End[gi] - ts.Start[gi])
					}
				}
				if eg > 0 {
					cEdges.Add(w.SMID(), eg)
				}
			}
			w.FillF32(acc, 0)
			ts.Edges(dgRev.Col, func(_, nbr []int32) {
				w.LoadF32(contrib, nbr, c)
				w.AddF32(acc, acc, c)
			})
			ts.ReduceAddF32(acc, sums)
			ts.SISD(1, func(gi int) { vals[gi] = base + opts.Damping*sums[gi] })
			ts.StoreF32Grouped(next, ts.Task, vals, nil)
		})
	}
}
