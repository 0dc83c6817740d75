package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// BFSFrontier runs queue-based (frontier) BFS: instead of scanning every
// vertex each level (the paper's quadratic formulation, implemented by BFS),
// each level processes only the current frontier array and builds the next
// frontier with atomic appends. Work per level is O(frontier + its edges),
// at the price of atomic enqueue traffic and indirection — the classic
// alternative the paper discusses. The virtual warp-centric mapping applies
// to the expansion exactly as in BFS.
//
// Discovery uses atomicCAS on the level array so each vertex is enqueued
// exactly once (plain stores would duplicate frontier entries).
func BFSFrontier(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*BFSResult, error) {
	return complete(newBFSFrontierRun(d, dg, src, opts))
}

// newBFSFrontierRun builds a frontier BFS whose rounds are levels; it stops
// when the frontier empties or after |V|+1 levels.
func newBFSFrontierRun(d *simt.Device, dg *DeviceGraph, src graph.VertexID, opts Options) (*Run[*BFSResult], error) {
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
	levels := r.i32("bfsf.levels", n)
	levels.Fill(Unvisited)
	levels.Data()[src] = 0
	frontier := r.i32("bfsf.frontier", n)
	next := r.i32("bfsf.next", n)
	nextCount := r.i32("bfsf.nextcount", 1)
	frontier.Data()[0] = int32(src)
	frontierLen := 1
	r.round = func() (bool, error) {
		cur := int32(res.Iterations)
		nextCount.Data()[0] = 0
		kernel := bfsFrontierKernel(dg, levels, frontier, next, nextCount, int32(frontierLen), cur, r.sched)
		if err := r.launch(r.grid(frontierLen), kernel, "frontier BFS level %d", cur); err != nil {
			return false, err
		}
		nextLen := int(nextCount.Data()[0])
		if nextLen > n {
			return false, fmt.Errorf("gpualgo: frontier BFS overflow: %d entries for %d vertices", nextLen, n)
		}
		frontierLen = nextLen
		frontier, next = next, frontier
		return frontierLen == 0 || int(cur)+1 >= n+1, nil
	}
	r.result = func() *BFSResult {
		res.Levels = append([]int32(nil), levels.Data()...)
		res.Depth = maxLevel(res.Levels)
		return res
	}
	return r, nil
}

func bfsFrontierKernel(dg *DeviceGraph, levels, frontier, next, nextCount *simt.BufI32, frontierLen, cur int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, frontierLen, func(ts *vwarp.Tasks) {
			// Indirect through the frontier: the task id is a queue slot.
			ts.LoadI32Grouped(frontier, ts.Task, ts.Task)
			ts.Row(dg.RowPtr, ts.Task)
			seen := w.VecI32()
			slot := w.VecI32()
			unvisited := w.ConstI32(Unvisited)
			lvlNext := w.ConstI32(cur + 1)
			zero := w.ConstI32(0)
			one := w.ConstI32(1)
			ts.Edges(dg.Col, func(_, nbr []int32) {
				// Winner-takes-ownership discovery.
				w.AtomicCASI32(levels, nbr, unvisited, lvlNext, seen)
				w.If(func(lane int) bool { return seen[lane] == Unvisited }, func() {
					w.AtomicAddI32(nextCount, zero, one, slot)
					w.StoreI32(next, slot, nbr)
				}, nil)
			})
		})
	}
}
