package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// MaxMSBFSSources bounds one multi-source BFS batch: one bit per source in
// an int32 word (the sign bit stays clear).
const MaxMSBFSSources = 31

// MSBFSResult is the output of a multi-source BFS batch.
type MSBFSResult struct {
	Result
	// Levels[s][v] is the hop distance from sources[s] to v (Unvisited if
	// unreached).
	Levels [][]int32
}

// MSBFS runs up to 31 breadth-first searches simultaneously with
// bit-parallel frontiers (the MS-BFS technique from this research group's
// follow-up work): visited and frontier sets are per-vertex bitmasks, so one
// adjacency-list scan advances every search at once — the sharing that makes
// batched BFS (e.g. for betweenness or closeness sampling) far cheaper than
// independent runs. Kernels use the virtual warp-centric mapping throughout.
func MSBFS(d *simt.Device, dg *DeviceGraph, sources []graph.VertexID, opts Options) (*MSBFSResult, error) {
	return complete(newMSBFSRun(d, dg, sources, opts))
}

// newMSBFSRun builds a multi-source BFS whose rounds are levels: an expand
// launch, then, unless it discovered nothing, a commit launch. It stops
// when a level discovers nothing or after |V|+1 levels.
func newMSBFSRun(d *simt.Device, dg *DeviceGraph, sources []graph.VertexID, opts Options) (*Run[*MSBFSResult], error) {
	res := &MSBFSResult{}
	r, err := newRun[*MSBFSResult](d, &res.Result, &opts, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	r.result = func() *MSBFSResult { return res }
	if len(sources) == 0 {
		r.done = true
		return r, nil
	}
	if len(sources) > MaxMSBFSSources {
		return nil, fmt.Errorf("gpualgo: %d sources exceed the %d-bit batch limit", len(sources), MaxMSBFSSources)
	}
	n := dg.NumVertices
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("gpualgo: MS-BFS source %d out of range [0,%d)", s, n)
		}
	}
	r.graph(dg)
	visited := r.i32("msbfs.visited", n)   // all bits seen so far
	frontier := r.i32("msbfs.frontier", n) // bits active this level
	next := r.i32("msbfs.next", n)         // bits discovered this level
	// The update kernel reads every next cell, including ones no lane ORed
	// this level — zero them explicitly (cudaMemset, not cudaMalloc luck).
	next.Fill(0)
	levelOf := r.i32("msbfs.levels", n*len(sources))
	levelOf.Fill(Unvisited)
	for s, src := range sources {
		frontier.Data()[src] |= 1 << uint(s)
		visited.Data()[src] |= 1 << uint(s)
		levelOf.Data()[s*n+int(src)] = 0
	}
	changed := r.i32("msbfs.changed", 1)
	lc := r.grid(n)
	r.round = func() (bool, error) {
		cur := int32(res.Iterations)
		changed.Data()[0] = 0
		if err := r.launch(lc, msbfsExpandKernel(dg, frontier, visited, next, changed, r.sched), "MS-BFS expand level %d", cur); err != nil {
			return false, err
		}
		if changed.Data()[0] == 0 {
			return true, nil
		}
		if err := r.launch(lc, msbfsCommitKernel(n, len(sources), frontier, visited, next, levelOf, cur+1, opts), "MS-BFS commit level %d", cur); err != nil {
			return false, err
		}
		return int(cur)+1 >= n+1, nil
	}
	r.result = func() *MSBFSResult {
		res.Levels = make([][]int32, len(sources))
		for s := range sources {
			res.Levels[s] = append([]int32(nil), levelOf.Data()[s*n:(s+1)*n]...)
		}
		return res
	}
	return r, nil
}

// msbfsExpandKernel pushes each frontier vertex's bitmask to its neighbors:
// next[nbr] |= frontier[v] &^ visited[nbr].
func msbfsExpandKernel(dg *DeviceGraph, frontier, visited, next, changed *simt.BufI32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			fbits := make([]int32, g)
			ts.LoadI32Grouped(frontier, ts.Task, fbits)
			ts.Mask(func(gi int) bool { return fbits[gi] != 0 }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				nvis := w.VecI32()
				push := w.VecI32()
				old := w.VecI32()
				zero := w.ConstI32(0)
				one := w.ConstI32(1)
				ts.Edges(dg.Col, func(_, nbr []int32) {
					w.LoadI32(visited, nbr, nvis)
					w.Apply(1, func(lane int) {
						push[lane] = fbits[ts.Group(lane)] &^ nvis[lane]
					})
					w.If(func(lane int) bool { return push[lane] != 0 }, func() {
						w.AtomicOrI32(next, nbr, push, old)
						w.If(func(lane int) bool { return push[lane]&^old[lane] != 0 }, func() {
							w.StoreI32(changed, zero, one)
						}, nil)
					}, nil)
				})
			})
		})
	}
}

// msbfsCommitKernel folds the discovered bits into visited, records levels
// for the newly set bits, and swaps next into frontier (clearing next) —
// all in one elementwise pass over vertices.
func msbfsCommitKernel(n, numSources int, frontier, visited, next, levelOf *simt.BufI32, level int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			nx := w.VecI32()
			vis := w.VecI32()
			w.LoadI32(next, idx, nx)
			w.LoadI32(visited, idx, vis)
			fresh := w.VecI32()
			w.AndNotI32(fresh, nx, vis)
			w.If(func(lane int) bool { return fresh[lane] != 0 }, func() {
				w.OrI32(vis, vis, fresh)
				w.StoreI32(visited, idx, vis)
				// Record the level for each newly reached source bit. The
				// bit loop is uniform (numSources is a launch constant), so
				// this is a short unrolled scalar sequence per vertex.
				lvlIdx := w.VecI32()
				lvl := w.ConstI32(level)
				for s := 0; s < numSources; s++ {
					bit := int32(1) << uint(s)
					w.If(func(lane int) bool { return fresh[lane]&bit != 0 }, func() {
						w.Apply(1, func(lane int) { lvlIdx[lane] = int32(s)*int32(n) + idx[lane] })
						w.StoreI32(levelOf, lvlIdx, lvl)
					}, nil)
				}
			}, nil)
			w.StoreI32(frontier, idx, fresh)
			zero := w.ConstI32(0)
			w.StoreI32(next, idx, zero)
			w.AddConstI32(idx, stride)
		})
	}
}

// MSBFSCPU is the host oracle: independent sequential BFS per source.
func MSBFSCPU(g *graph.CSR, sources []graph.VertexID) [][]int32 {
	out := make([][]int32, len(sources))
	for s, src := range sources {
		out[s] = bfsLevelsCPU(g, src)
	}
	return out
}

func bfsLevelsCPU(g *graph.CSR, src graph.VertexID) []int32 {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = Unvisited
	}
	levels[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if levels[u] == Unvisited {
				levels[u] = levels[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return levels
}
