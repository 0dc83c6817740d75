package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// Direction selects a BFS traversal direction per level.
type Direction int

const (
	// DirPush is top-down: frontier vertices scan out-edges (the paper's
	// formulation).
	DirPush Direction = iota
	// DirPull is bottom-up: unvisited vertices scan in-edges looking for a
	// frontier parent, with early exit on the first hit.
	DirPull
)

// DirOptions tune the hybrid direction heuristic (Beamer-style, simplified
// to vertex counts): switch to pull when the frontier exceeds |V|/Alpha,
// back to push when it falls below |V|/Beta.
type DirOptions struct {
	Options
	// Alpha controls the push→pull switch (default 4).
	Alpha int
	// Beta controls the pull→push switch (default 24).
	Beta int
	// Force pins every level to one direction (nil = hybrid heuristic).
	Force *Direction
}

// BFSDirResult extends BFSResult with the per-level direction schedule.
type BFSDirResult struct {
	BFSResult
	// Schedule records the direction used at each level.
	Schedule []Direction
}

// BFSDirectionOpt runs direction-optimizing BFS: per level the host picks
// top-down (push) or bottom-up (pull). Pull is the technique the authors
// developed next (Hong et al., PACT 2011 / Beamer et al.): on low-diameter
// skewed graphs the frontier quickly covers most of the graph, and checking
// each unvisited vertex for *any* frontier parent (with early exit) touches
// far fewer edges than expanding the whole frontier. Both kernels use the
// virtual warp-centric mapping.
func BFSDirectionOpt(d *simt.Device, g *graph.CSR, src graph.VertexID, opts DirOptions) (*BFSDirResult, error) {
	return complete(newBFSDirRun(d, g, src, opts))
}

// newBFSDirRun builds a direction-optimizing BFS whose rounds are levels,
// each in the direction the host picks from the last level's discoveries;
// it stops when a level discovers nothing or after |V|+1 levels.
func newBFSDirRun(d *simt.Device, g *graph.CSR, src graph.VertexID, opts DirOptions) (*Run[*BFSDirResult], error) {
	res := &BFSDirResult{}
	r, err := newRun[*BFSDirResult](d, &res.Result, &opts.Options)
	if err != nil {
		return nil, err
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 4
	}
	if opts.Beta <= 0 {
		opts.Beta = 24
	}
	n := g.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("gpualgo: BFS source %d out of range [0,%d)", src, n)
	}
	dg := r.graph(Upload(d, g))
	dgRev := r.graph(Upload(d, g.Reverse()))
	levels := r.i32("bfsd.levels", n)
	levels.Fill(Unvisited)
	levels.Data()[src] = 0
	discovered := r.i32("bfsd.discovered", 1)
	frontier := 1
	lc := r.grid(n)
	r.round = func() (bool, error) {
		cur := int32(res.Iterations)
		dir := DirPush
		switch {
		case opts.Force != nil:
			dir = *opts.Force
		case frontier > n/opts.Alpha:
			dir = DirPull
		case frontier < n/opts.Beta:
			dir = DirPush
		default:
			dir = DirPull
		}
		discovered.Data()[0] = 0
		var kernel simt.Kernel
		if dir == DirPush {
			kernel = bfsPushCountKernel(dg, levels, discovered, cur, opts.Options)
		} else {
			kernel = bfsPullKernel(dgRev, levels, discovered, cur, opts.Options)
		}
		if err := r.launch(lc, kernel, "direction-opt BFS level %d", cur); err != nil {
			return false, err
		}
		res.Schedule = append(res.Schedule, dir)
		frontier = int(discovered.Data()[0])
		return frontier == 0 || int(cur)+1 >= n+1, nil
	}
	r.result = func() *BFSDirResult {
		res.Levels = append([]int32(nil), levels.Data()...)
		res.Depth = maxLevel(res.Levels)
		return res
	}
	return r, nil
}

// bfsPushCountKernel is the top-down expansion with CAS discovery so the
// new-frontier size can be counted exactly (the hybrid heuristic needs it).
func bfsPushCountKernel(dg *DeviceGraph, levels, discovered *simt.BufI32, cur int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			lvl := make([]int32, g)
			ts.LoadI32Grouped(levels, ts.Task, lvl)
			ts.Mask(func(gi int) bool { return lvl[gi] == cur }, func() {
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
				nbr := w.VecI32()
				old := w.VecI32()
				unvisited := w.ConstI32(Unvisited)
				next := w.ConstI32(cur + 1)
				zero := w.ConstI32(0)
				one := w.ConstI32(1)
				ts.SIMDRange(start, end, func(j []int32) {
					w.LoadI32(dg.Col, j, nbr)
					w.AtomicCASI32(levels, nbr, unvisited, next, old)
					w.If(func(lane int) bool { return old[lane] == Unvisited }, func() {
						w.AtomicAddI32(discovered, zero, one, nil)
					}, nil)
				})
			})
		})
	}
}

// bfsPullKernel is the bottom-up check: every unvisited vertex scans its
// in-neighbors for one at the current level, stopping at the first hit
// (a warp-vote early exit, like CUDA's __any).
func bfsPullKernel(dgRev *DeviceGraph, levels, discovered *simt.BufI32, cur int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dgRev.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			lvl := make([]int32, g)
			ts.LoadI32Grouped(levels, ts.Task, lvl)
			ts.Mask(func(gi int) bool { return lvl[gi] == Unvisited }, func() {
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dgRev.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dgRev.RowPtr, taskP1, end)

				done := make([]bool, g)
				j := w.VecI32()
				w.Apply(1, func(lane int) {
					j[lane] = start[ts.Group(lane)] + int32(ts.LaneInGroup(lane))
				})
				nbr := w.VecI32()
				nl := w.VecI32()
				found := w.VecI32()
				w.Apply(1, func(lane int) { found[lane] = 0 })
				anyFound := w.VecI32()
				w.While(func(lane int) bool {
					gi := ts.Group(lane)
					return !done[gi] && j[lane] < end[gi]
				}, func() {
					w.LoadI32(dgRev.Col, j, nbr)
					w.LoadI32(levels, nbr, nl)
					w.Apply(1, func(lane int) {
						if nl[lane] == cur {
							found[lane] = 1
						}
					})
					// Warp-vote early exit per virtual warp.
					w.GroupReduceAddI32(ts.K, found, anyFound)
					w.Apply(1, func(lane int) {
						gi := ts.Group(lane)
						if anyFound[lane] > 0 {
							done[gi] = true
						}
						j[lane] += int32(ts.K)
					})
				})
				ts.Mask(func(gi int) bool { return done[gi] }, func() {
					vals := make([]int32, g)
					for gi := range vals {
						vals[gi] = cur + 1
					}
					ts.StoreI32Grouped(levels, ts.Task, vals, nil)
					zeros := make([]int32, g)
					ones := make([]int32, g)
					for gi := range ones {
						ones[gi] = 1
					}
					ts.AtomicAddGrouped(discovered, zeros, ones, nil, nil)
				})
			})
		})
	}
}
