package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// Unvisited marks undiscovered vertices in the device levels array.
const Unvisited = int32(-1)

// BFSResult is the output of a device BFS run.
type BFSResult struct {
	Result
	// Levels holds each vertex's hop distance from the source (Unvisited if
	// unreached).
	Levels []int32
	// Depth is the deepest level assigned.
	Depth int32
	// Deferred counts vertices routed through the outlier queue across all
	// levels (0 unless Options.DeferThreshold > 0).
	Deferred int
}

// NewBFSRun validates the inputs and allocates device state for a
// level-synchronous BFS from src, without launching anything yet. Each Step
// expands one frontier level (one kernel launch, plus one for deferred
// outliers when enabled); the run is done when the frontier is exhausted or
// after |V|+1 levels.
func NewBFSRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*Run[*BFSResult], error) {
	res := &BFSResult{}
	r, err := newRun[*BFSResult](d, &res.Result, &opts)
	if err != nil {
		return nil, err
	}
	if src < 0 || int(src) >= dg.NumVertices {
		return nil, fmt.Errorf("gpualgo: BFS source %d out of range [0,%d)", src, dg.NumVertices)
	}
	n := dg.NumVertices
	r.graph(dg)
	levels := r.i32("bfs.levels", n)
	levels.Fill(Unvisited)
	levels.Data()[src] = 0
	changed := r.i32("bfs.changed", 1)
	var counter *simt.BufI32
	if opts.Dynamic {
		counter = r.i32("bfs.counter", 1)
	}
	var q *vwarp.OutlierQueue
	if opts.DeferThreshold > 0 {
		q = vwarp.NewOutlierQueue(d, "bfs.outliers", n)
		r.keep(q.Items, q.Count)
	}
	lc := r.grid(n)
	r.round = func() (bool, error) {
		cur := int32(res.Iterations)
		changed.Data()[0] = 0
		if counter != nil {
			counter.Data()[0] = 0
		}
		if q != nil {
			q.Reset()
		}
		if err := r.launch(lc, bfsLevelKernel(dg, levels, changed, counter, q, cur, opts), "BFS level %d", cur); err != nil {
			return false, err
		}
		deferred := 0
		if q != nil && q.Len() > 0 {
			deferred = q.Len()
			dk := bfsDeferredKernel(dg, levels, changed, q, int32(deferred), cur, opts)
			if err := r.launch(r.grid(deferred*d.Config().WarpWidth/opts.K), dk, "BFS deferred pass level %d", cur); err != nil {
				return false, err
			}
		}
		res.Deferred += deferred
		return changed.Data()[0] == 0 || int(cur)+1 >= n+1, nil
	}
	r.result = func() *BFSResult {
		res.Levels = append([]int32(nil), levels.Data()...)
		res.Depth = maxLevel(res.Levels)
		return res
	}
	return r, nil
}

// maxLevel returns the deepest level in levels (0 when none is positive).
func maxLevel(levels []int32) int32 {
	var depth int32
	for _, l := range levels {
		if l > depth {
			depth = l
		}
	}
	return depth
}

// BFS runs level-synchronous breadth-first search on the device, one kernel
// launch per level (plus one per level for deferred outliers when enabled),
// exactly mirroring the paper's implementation structure: a levels array, a
// global "changed" flag, and re-launch until fixpoint.
func BFS(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*BFSResult, error) {
	return complete(NewBFSRun(d, dg, src, opts))
}

// bfsScratchKey is the bfsScratch cache slot on a WarpCtx's KernelScratch.
const bfsScratchKey = "gpualgo.bfs"

// bfsScratch holds the per-warp working vectors and closures of the BFS
// kernels. It is cached on the warp context (KernelScratch) and survives
// kernel invocations and launches, so on the level-synchronous relaunch path
// the kernels allocate nothing in steady state: bind rewrites the launch
// parameters each invocation, and every closure reads them through the
// struct.
type bfsScratch struct {
	w *simt.WarpCtx

	// Per-invocation parameters, rewritten by bind.
	dg                *DeviceGraph
	levels, changed   *simt.BufI32
	q                 *vwarp.OutlierQueue
	cur               int32
	deferThreshold    int32
	cFrontier, cEdges *obs.Counter

	ts *vwarp.Tasks // current round's task view (set by body)

	// Per-group vectors, sized for the widest possible grouping (K=1).
	lvl, start, end, taskP1 []int32
	// Per-lane vectors.
	next, nbr, nl []int32
	zero, one     []int32

	body, deferredBody func(ts *vwarp.Tasks)
	maskPred           func(gi int) bool
	maskBody           func()
	sisdP1             func(gi int)
	heavy, light       func(gi int) bool
	expand             func()
	simdBody           func(j []int32)
	unvisited          func(lane int) bool
	discover           func()
}

// bfsScratchFor returns the context's cached scratch, building it on first
// use of this warp context by a BFS kernel.
func bfsScratchFor(w *simt.WarpCtx) *bfsScratch {
	if s, ok := w.KernelScratch(bfsScratchKey).(*bfsScratch); ok {
		return s
	}
	width := w.Width()
	s := &bfsScratch{
		w:      w,
		lvl:    make([]int32, width),
		start:  make([]int32, width),
		end:    make([]int32, width),
		taskP1: make([]int32, width),
		next:   make([]int32, width),
		nbr:    make([]int32, width),
		nl:     make([]int32, width),
		zero:   make([]int32, width),
		one:    make([]int32, width),
	}
	for i := range s.one {
		s.one[i] = 1
	}
	s.maskPred = func(gi int) bool { return s.lvl[gi] == s.cur }
	s.sisdP1 = func(gi int) { s.taskP1[gi] = s.ts.Task[gi] + 1 }
	s.heavy = func(gi int) bool { return s.end[gi]-s.start[gi] > s.deferThreshold }
	s.light = func(gi int) bool { return !s.heavy(gi) }
	s.unvisited = func(lane int) bool { return s.nl[lane] == Unvisited }
	s.discover = func() {
		s.w.StoreI32(s.levels, s.nbr, s.next)
		s.w.StoreI32(s.changed, s.zero, s.one)
	}
	s.simdBody = func(j []int32) {
		s.w.LoadI32(s.dg.Col, j, s.nbr)
		s.w.LoadI32(s.levels, s.nbr, s.nl)
		s.w.If(s.unvisited, s.discover, nil)
	}
	s.expand = func() { s.ts.SIMDRange(s.start, s.end, s.simdBody) }
	s.maskBody = func() {
		ts := s.ts
		ts.LoadI32Grouped(s.dg.RowPtr, ts.Task, s.start)
		ts.SISD(1, s.sisdP1)
		ts.LoadI32Grouped(s.dg.RowPtr, s.taskP1, s.end)
		if s.cEdges != nil {
			// Heavy vertices are deferred below; their edges are counted by
			// the deferred pass.
			var eg int64
			for gi := 0; gi < ts.Groups; gi++ {
				if ts.Valid(gi) && s.lvl[gi] == s.cur &&
					(s.q == nil || s.end[gi]-s.start[gi] <= s.deferThreshold) {
					eg += int64(s.end[gi] - s.start[gi])
				}
			}
			if eg > 0 {
				s.cEdges.Add(s.w.SMID(), eg)
			}
		}
		if s.q != nil {
			ts.Defer(s.q, s.heavy)
			ts.Mask(s.light, s.expand)
		} else {
			s.expand()
		}
	}
	s.body = func(ts *vwarp.Tasks) {
		s.ts = ts
		ts.LoadI32Grouped(s.levels, ts.Task, s.lvl)
		if s.cFrontier != nil {
			var fr int64
			for gi := 0; gi < ts.Groups; gi++ {
				if ts.Valid(gi) && s.lvl[gi] == s.cur {
					fr++
				}
			}
			if fr > 0 {
				s.cFrontier.Add(s.w.SMID(), fr)
			}
		}
		ts.Mask(s.maskPred, s.maskBody)
	}
	s.deferredBody = func(ts *vwarp.Tasks) {
		s.ts = ts
		ts.LoadI32Grouped(s.dg.RowPtr, ts.Task, s.start)
		ts.SISD(1, s.sisdP1)
		ts.LoadI32Grouped(s.dg.RowPtr, s.taskP1, s.end)
		if s.cEdges != nil {
			var eg int64
			for gi := 0; gi < ts.Groups; gi++ {
				if ts.Valid(gi) {
					eg += int64(s.end[gi] - s.start[gi])
				}
			}
			if eg > 0 {
				s.cEdges.Add(s.w.SMID(), eg)
			}
		}
		s.expand()
	}
	w.SetKernelScratch(bfsScratchKey, s)
	return s
}

// bind rewrites the scratch's launch parameters for one kernel invocation.
func (s *bfsScratch) bind(dg *DeviceGraph, levels, changed *simt.BufI32, q *vwarp.OutlierQueue, cur, deferThreshold int32, cFrontier, cEdges *obs.Counter) {
	s.dg, s.levels, s.changed, s.q = dg, levels, changed, q
	s.cur, s.deferThreshold = cur, deferThreshold
	s.cFrontier, s.cEdges = cFrontier, cEdges
	for i := range s.next {
		s.next[i] = cur + 1
	}
}

// bfsLevelKernel expands the frontier at level cur. Discovery writes are
// plain stores (a benign race, as in the paper: any winner writes the same
// level value).
func bfsLevelKernel(dg *DeviceGraph, levels, changed, counter *simt.BufI32, q *vwarp.OutlierQueue, cur int32, opts Options) simt.Kernel {
	var cFrontier, cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cFrontier = m.Counter(MetricBFSFrontier, "BFS frontier vertices expanded.")
		cEdges = m.Counter(MetricBFSEdges, "BFS adjacency entries scanned.")
	}
	return func(w *simt.WarpCtx) {
		s := bfsScratchFor(w)
		s.bind(dg, levels, changed, q, cur, opts.DeferThreshold, cFrontier, cEdges)
		switch {
		case counter != nil:
			vwarp.ForEachDynamic(w, opts.K, int32(dg.NumVertices), counter, opts.Chunk, s.body)
		case opts.Blocked:
			vwarp.ForEachStaticBlocked(w, opts.K, int32(dg.NumVertices), s.body)
		default:
			vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), s.body)
		}
	}
}

// bfsDeferredKernel processes outlier vertices with one full physical warp
// per vertex, the paper's maximum-parallelism follow-up pass.
func bfsDeferredKernel(dg *DeviceGraph, levels, changed *simt.BufI32, q *vwarp.OutlierQueue, numDeferred, cur int32, opts Options) simt.Kernel {
	var cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cEdges = m.Counter(MetricBFSEdges, "BFS adjacency entries scanned.")
	}
	return func(w *simt.WarpCtx) {
		s := bfsScratchFor(w)
		s.bind(dg, levels, changed, nil, cur, 0, nil, cEdges)
		vwarp.ForEachDeferred(w, w.Width(), q, numDeferred, s.deferredBody)
	}
}
