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
}

// NewBFSRun validates the inputs and allocates device state for a
// level-synchronous BFS from src, without launching anything yet. Each Step
// expands one frontier level (one kernel launch, plus its deferred pass
// when deferral is on); the run is done when the frontier is exhausted or
// after |V|+1 levels.
func NewBFSRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*Run[*BFSResult], error) {
	res := &BFSResult{}
	r, err := newRun[*BFSResult](d, &res.Result, &opts, dg.NumVertices)
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
	lc := r.grid(n)
	r.round = func() (bool, error) {
		cur := int32(res.Iterations)
		changed.Data()[0] = 0
		if err := r.launch(lc, bfsLevelKernel(dg, levels, changed, cur, r.sched, opts), "BFS level %d", cur); err != nil {
			return false, err
		}
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
// kernel. It is cached on the warp context (KernelScratch) and survives
// kernel invocations and launches, so on the level-synchronous relaunch path
// the kernel allocates nothing in steady state: bind rewrites the launch
// parameters each invocation, and every closure reads them through the
// struct.
type bfsScratch struct {
	w *simt.WarpCtx

	// Per-invocation parameters, rewritten by bind.
	dg                *DeviceGraph
	levels, changed   *simt.BufI32
	cur               int32
	cFrontier, cEdges *obs.Counter

	ts  *vwarp.Tasks // current round's task view (set by body)
	nbr []int32      // current Edges round's neighbors (set by edgeBody)

	// Per-group vector, sized for the widest possible grouping (K=1).
	lvl []int32
	// Per-lane vectors.
	next, nl  []int32
	zero, one []int32

	body      func(ts *vwarp.Tasks)
	maskPred  func(gi int) bool
	maskBody  func()
	edgeBody  func(j, nbr []int32)
	unvisited func(lane int) bool
	discover  func()
}

// bfsScratchFor returns the context's cached scratch, building it on first
// use of this warp context by the BFS kernel.
func bfsScratchFor(w *simt.WarpCtx) *bfsScratch {
	if s, ok := w.KernelScratch(bfsScratchKey).(*bfsScratch); ok {
		return s
	}
	width := w.Width()
	s := &bfsScratch{
		w:    w,
		lvl:  make([]int32, width),
		next: make([]int32, width),
		nl:   make([]int32, width),
		zero: make([]int32, width),
		one:  make([]int32, width),
	}
	for i := range s.one {
		s.one[i] = 1
	}
	s.maskPred = func(gi int) bool { return s.lvl[gi] == s.cur }
	s.unvisited = func(lane int) bool { return s.nl[lane] == Unvisited }
	s.discover = func() {
		s.w.StoreI32(s.levels, s.nbr, s.next)
		s.w.StoreI32(s.changed, s.zero, s.one)
	}
	s.edgeBody = func(j, nbr []int32) {
		s.nbr = nbr
		s.w.LoadI32(s.levels, nbr, s.nl)
		s.w.If(s.unvisited, s.discover, nil)
	}
	s.maskBody = func() {
		ts := s.ts
		ts.Row(s.dg.RowPtr, ts.Task)
		if s.cFrontier != nil {
			// Counted after Row, so a deferred vertex counts once, in its
			// deferred pass.
			var fr, eg int64
			for gi := 0; gi < ts.Groups; gi++ {
				if ts.Valid(gi) && s.lvl[gi] == s.cur {
					fr++
					eg += int64(ts.End[gi] - ts.Start[gi])
				}
			}
			if fr > 0 {
				s.cFrontier.Add(s.w.SMID(), fr)
			}
			if eg > 0 {
				s.cEdges.Add(s.w.SMID(), eg)
			}
		}
		ts.Edges(s.dg.Col, s.edgeBody)
	}
	s.body = func(ts *vwarp.Tasks) {
		s.ts = ts
		ts.LoadI32Grouped(s.levels, ts.Task, s.lvl)
		ts.Mask(s.maskPred, s.maskBody)
	}
	w.SetKernelScratch(bfsScratchKey, s)
	return s
}

// bind rewrites the scratch's launch parameters for one kernel invocation.
func (s *bfsScratch) bind(dg *DeviceGraph, levels, changed *simt.BufI32, cur int32, cFrontier, cEdges *obs.Counter) {
	s.dg, s.levels, s.changed, s.cur = dg, levels, changed, cur
	s.cFrontier, s.cEdges = cFrontier, cEdges
	for i := range s.next {
		s.next[i] = cur + 1
	}
}

// bfsLevelKernel expands the frontier at level cur. Discovery writes are
// plain stores (a benign race, as in the paper: any winner writes the same
// level value).
func bfsLevelKernel(dg *DeviceGraph, levels, changed *simt.BufI32, cur int32, sched vwarp.Schedule, opts Options) simt.Kernel {
	var cFrontier, cEdges *obs.Counter
	if m := opts.Metrics; m != nil {
		cFrontier = m.Counter(MetricBFSFrontier, "BFS frontier vertices expanded.")
		cEdges = m.Counter(MetricBFSEdges, "BFS adjacency entries scanned.")
	}
	return func(w *simt.WarpCtx) {
		s := bfsScratchFor(w)
		s.bind(dg, levels, changed, cur, cFrontier, cEdges)
		vwarp.ForEach(w, sched, int32(dg.NumVertices), s.body)
	}
}
