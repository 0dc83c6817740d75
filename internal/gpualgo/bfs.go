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
		// Registers are taken once per invocation, not per round: the
		// register file is reclaimed only when the invocation returns.
		lvl := w.VecI32()
		nl := w.VecI32()
		next := w.ConstI32(cur + 1)
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			ts.LoadI32Grouped(levels, ts.Task, lvl)
			ts.Mask(func(gi int) bool { return lvl[gi] == cur }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				if cFrontier != nil {
					// Counted after Row, so a deferred vertex counts once, in
					// its deferred pass.
					var fr, eg int64
					for gi := 0; gi < ts.Groups; gi++ {
						if ts.Valid(gi) && lvl[gi] == cur {
							fr++
							eg += int64(ts.End[gi] - ts.Start[gi])
						}
					}
					if fr > 0 {
						cFrontier.Add(w.SMID(), fr)
					}
					if eg > 0 {
						cEdges.Add(w.SMID(), eg)
					}
				}
				ts.Edges(dg.Col, func(_, nbr []int32) {
					w.LoadI32(levels, nbr, nl)
					w.If(func(lane int) bool { return nl[lane] == Unvisited }, func() {
						w.StoreI32(levels, nbr, next)
						w.StoreI32(changed, zero, one)
					}, nil)
				})
			})
		})
	}
}
