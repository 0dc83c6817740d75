package gpualgo

import (
	"fmt"
	"sort"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// RepairInfo summarizes the work an incremental run did — the quantities
// EXPERIMENTS.md compares against full recompute.
type RepairInfo struct {
	// Invalidated counts vertices whose previous value was discarded by the
	// host-side invalidation phase (BFS/SSSP: support lost after deletions;
	// CC: members of affected components reset to self-labels).
	Invalidated int
	// Seeds is the initial repair frontier size.
	Seeds int
	// Rounds is the number of device relaxation rounds (kernel launches for
	// the frontier loop; PageRank: power iterations).
	Rounds int
	// Graph is the CSR the delta compacted to, the graph the run computed
	// on, and Weights its edge weights (nil for an unweighted delta): a
	// caller that recomputes or checks the result reuses them instead of
	// compacting the delta again.
	Graph   *graph.CSR
	Weights []int32
}

// --- BFS / SSSP repair ------------------------------------------------------
//
// Incremental shortest paths runs in two phases, following the classic
// Ramalingam-Reps shape recast onto the device frontier machinery:
//
// Phase 1 (host): invalidation. After deletions, stale values are
// UNDER-estimates (a shorter path may no longer exist), and monotone
// atomicMin relaxation can never raise them — so every vertex whose value
// can no longer be justified must be reset to infinity first. A vertex v is
// supported when some live in-neighbor x has val[x] + w(x,v) == val[v].
// Deleted-edge heads seed a worklist; when a vertex loses all support it is
// invalidated and its out-children that it was supporting are re-checked.
// By induction on the old values, every stale-low vertex lies on a cascade
// from a deleted edge, so invalidation is complete: afterwards every value
// is >= its true distance in the mutated graph.
//
// Phase 2 (device): decrease-only frontier relaxation over the compacted
// graph, seeded from inserted edges' tails and from live in-neighbors of
// invalidated vertices. Monotone relaxation from over-estimates converges to
// the exact fixpoint, and a first-wrong-vertex argument shows the seed set
// reaches every vertex whose value must change — so the repaired result is
// bit-identical to a full recompute on the compacted graph.

// invalidateStale is phase 1. val uses the cpualgo.InfDist convention and is
// rewritten in place; unit forces every edge weight to 1 (BFS hop counts).
// It returns the invalidated vertices in invalidation order.
func invalidateStale(dl *graph.Delta, src graph.VertexID, val []int32, applied []graph.AppliedMutation, unit bool) []graph.VertexID {
	var work []graph.VertexID
	for _, m := range applied {
		if m.Del {
			work = append(work, m.Dst)
		}
	}
	var invalidated []graph.VertexID
	for len(work) > 0 {
		v := work[0]
		work = work[1:]
		if v == src || val[v] >= cpualgo.InfDist {
			continue
		}
		supported := false
		dl.InNeighborsLive(v, func(x graph.VertexID, w int32) bool {
			if unit {
				w = 1
			}
			if val[x] < cpualgo.InfDist && val[x]+w == val[v] {
				supported = true
				return false
			}
			return true
		})
		if supported {
			continue
		}
		old := val[v]
		val[v] = cpualgo.InfDist
		invalidated = append(invalidated, v)
		dl.OutNeighborsLive(v, func(y graph.VertexID, w int32) bool {
			if unit {
				w = 1
			}
			if val[y] == old+w {
				work = append(work, y)
			}
			return true
		})
	}
	return invalidated
}

// repairSeeds builds the phase-2 frontier: tails of inserted edges plus live
// in-neighbors of invalidated vertices, finite-valued only, deduplicated and
// sorted for a deterministic frontier layout.
func repairSeeds(dl *graph.Delta, val []int32, applied []graph.AppliedMutation, invalidated []graph.VertexID) []int32 {
	seen := make(map[graph.VertexID]bool)
	var seeds []int32
	add := func(v graph.VertexID) {
		if !seen[v] && val[v] < cpualgo.InfDist {
			seen[v] = true
			seeds = append(seeds, int32(v))
		}
	}
	for _, m := range applied {
		if !m.Del {
			add(m.Src)
		}
	}
	for _, v := range invalidated {
		dl.InNeighborsLive(v, func(x graph.VertexID, _ int32) bool {
			add(x)
			return true
		})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

// drainFrontier makes r's rounds the phase-2 device loop: rounds of
// decrease-only relaxation that drain a worklist seeded with seeds. Each
// round launches kernel over the current frontier; the kernel appends the
// next frontier through nextCount, deduplicated per round by a claim buffer
// driven by atomicMin on the negated round number (the machine has no
// atomicMax), so each vertex enters the next frontier once per round. what
// names the loop in errors, prefix its buffers. The run is done when the
// frontier drains, and fails if it overflows or is still non-empty after
// |V|+1 rounds.
func (r *Run[R]) drainFrontier(n int, seeds []int32, prefix, what string, kernel func(frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32) simt.Kernel) {
	if len(seeds) == 0 {
		r.done = true
		return
	}
	frontier := r.i32(prefix+".frontier", n)
	next := r.i32(prefix+".next", n)
	nextCount := r.i32(prefix+".nextcount", 1)
	claim := r.i32(prefix+".claim", n)
	copy(frontier.Data(), seeds)
	frontierLen := len(seeds)
	r.round = func() (bool, error) {
		round := r.res.Iterations + 1
		nextCount.Data()[0] = 0
		k := kernel(frontier, next, nextCount, claim, int32(frontierLen), int32(-round))
		if err := r.launch(r.grid(frontierLen), k, "%s round %d", what, round); err != nil {
			return false, err
		}
		nextLen := int(nextCount.Data()[0])
		if nextLen > n {
			return false, fmt.Errorf("gpualgo: %s frontier overflow: %d entries for %d vertices", what, nextLen, n)
		}
		if nextLen > 0 && round >= n+1 {
			return false, fmt.Errorf("gpualgo: %s did not converge in %d rounds", what, round)
		}
		frontierLen = nextLen
		frontier, next = next, frontier
		return frontierLen == 0, nil
	}
}

// repairGraph validates dl and uploads the graph it compacts to as r's
// graph, with its weights when weighted is set: a repair runs on the same
// CSR a recompute would. info records the compacted graph and weights.
func (r *Run[R]) repairGraph(dl *graph.Delta, weighted bool, info *RepairInfo) (*DeviceGraph, error) {
	if err := dl.Validate(); err != nil {
		return nil, err
	}
	g, w, err := dl.Compact()
	if err != nil {
		return nil, err
	}
	info.Graph, info.Weights = g, w
	if !weighted {
		return r.graph(Upload(r.d, g)), nil
	}
	dg, err := UploadWeighted(r.d, g, w)
	if err != nil {
		return nil, err
	}
	return r.graph(dg), nil
}

// repairRelaxKernel relaxes the out-edges of one frontier's vertices with
// atomicMin, by unit weights when dg carries none (BFS hop counts), and
// appends every improved neighbor to the next frontier once per round.
func repairRelaxKernel(dg *DeviceGraph, val, frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, frontierLen, func(ts *vwarp.Tasks) {
			// Indirect through the frontier: the task id is a queue slot.
			ts.LoadI32Grouped(frontier, ts.Task, ts.Task)
			dv := w.VecI32()
			ts.LoadI32Grouped(val, ts.Task, dv)
			ts.Row(dg.RowPtr, ts.Task)
			wt := w.VecI32()
			cand := w.VecI32()
			old := w.VecI32()
			ts.Edges(dg.Col, func(j, nbr []int32) {
				if dg.Weights != nil {
					w.LoadI32(dg.Weights, j, wt)
					w.Apply(1, func(lane int) { cand[lane] = dv[ts.Group(lane)] + wt[lane] })
				} else {
					w.Apply(1, func(lane int) { cand[lane] = dv[ts.Group(lane)] + 1 })
				}
				w.AtomicMinI32(val, nbr, cand, old)
				w.If(func(lane int) bool { return cand[lane] < old[lane] }, func() {
					enqueue(w, next, nextCount, claim, nbr, negRound)
				}, nil)
			})
		})
	}
}

// enqueue appends each active lane's vertex nbr[lane] to the next frontier,
// once per vertex and round: the lanes whose atomicMin on the claim cell
// first lowers it to negRound each take a slot with one atomic on the count
// cell and store their vertex there. kernelcheck inlines it into both
// repair kernels; nbr keeps the name of their Edges parameter, because the
// analyzer classes values by name and so sees per-lane neighbor ids.
func enqueue(w *simt.WarpCtx, next, nextCount, claim *simt.BufI32, nbr []int32, negRound int32) {
	cold := w.VecI32()
	w.AtomicMinI32(claim, nbr, w.ConstI32(negRound), cold)
	w.If(func(lane int) bool { return cold[lane] > negRound }, func() {
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		slot := w.VecI32()
		w.AtomicAddI32(nextCount, zero, one, slot)
		w.StoreI32(next, slot, nbr)
	}, nil)
}

// IncrementalBFS repairs prevLevels (a BFS result for the pre-batch graph
// from the same source, Unvisited convention) after the mutation batches
// whose effective changes are applied, yielding levels bit-identical to a
// full BFS on the compacted graph.
func IncrementalBFS(d *simt.Device, dl *graph.Delta, src graph.VertexID, prevLevels []int32, applied []graph.AppliedMutation, opts Options) (*BFSResult, RepairInfo, error) {
	res := &BFSResult{}
	r, err := newRun[*BFSResult](d, &res.Result, &opts, 0)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	n := dl.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: BFS source %d out of range [0,%d)", src, n)
	}
	if len(prevLevels) != n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: %d previous levels for %d vertices", len(prevLevels), n)
	}
	var info RepairInfo
	dg, err := r.repairGraph(dl, false, &info)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	val := make([]int32, n)
	for i, l := range prevLevels {
		if l == Unvisited {
			val[i] = cpualgo.InfDist
		} else {
			val[i] = l
		}
	}
	invalidated := invalidateStale(dl, src, val, applied, true)
	seeds := repairSeeds(dl, val, applied, invalidated)

	dval := r.i32("ibfs.val", n)
	copy(dval.Data(), val)
	r.drainFrontier(n, seeds, "repair", "repair", func(frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32) simt.Kernel {
		return repairRelaxKernel(dg, dval, frontier, next, nextCount, claim, frontierLen, negRound, r.sched)
	})
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Levels = make([]int32, n)
	for i, v := range dval.Data() {
		if v >= cpualgo.InfDist {
			res.Levels[i] = Unvisited
		} else {
			res.Levels[i] = v
			if v > res.Depth {
				res.Depth = v
			}
		}
	}
	info.Invalidated, info.Seeds, info.Rounds = len(invalidated), len(seeds), res.Iterations
	return res, info, nil
}

// IncrementalSSSP repairs prevDist (an SSSP result for the pre-batch graph
// from the same source, cpualgo.InfDist convention) after the mutation
// batches whose effective changes are applied, yielding distances
// bit-identical to a full SSSP on the compacted graph. The delta must be
// weighted.
func IncrementalSSSP(d *simt.Device, dl *graph.Delta, src graph.VertexID, prevDist []int32, applied []graph.AppliedMutation, opts Options) (*SSSPResult, RepairInfo, error) {
	res := &SSSPResult{}
	r, err := newRun[*SSSPResult](d, &res.Result, &opts, 0)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	if !dl.Weighted() {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: incremental SSSP requires a weighted delta")
	}
	n := dl.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: SSSP source %d out of range [0,%d)", src, n)
	}
	if len(prevDist) != n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: %d previous distances for %d vertices", len(prevDist), n)
	}
	var info RepairInfo
	dg, err := r.repairGraph(dl, true, &info)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	val := append([]int32(nil), prevDist...)
	invalidated := invalidateStale(dl, src, val, applied, false)
	seeds := repairSeeds(dl, val, applied, invalidated)

	dval := r.i32("isssp.val", n)
	copy(dval.Data(), val)
	r.drainFrontier(n, seeds, "repair", "repair", func(frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32) simt.Kernel {
		return repairRelaxKernel(dg, dval, frontier, next, nextCount, claim, frontierLen, negRound, r.sched)
	})
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Dist = append([]int32(nil), dval.Data()...)
	info.Invalidated, info.Seeds, info.Rounds = len(invalidated), len(seeds), res.Iterations
	return res, info, nil
}

// --- Connected components repair -------------------------------------------

// IncrementalCC repairs prevLabels (min-vertex-id component labels for the
// pre-batch graph) after mutation batches on a SYMMETRIC delta (every
// mutation applied in both directions, as ConnectedComponents expects a
// symmetrized upload). Inserts union components; deletions reset every
// vertex of an affected component to its own id and recompute those
// components by min-label propagation — seeded from the reset vertices and
// inserted edges' endpoints, pulling before pushing so a reset vertex
// re-adopts a surviving neighbor label even when that neighbor is not
// seeded. The result is bit-identical to a full recompute on the compacted
// graph.
func IncrementalCC(d *simt.Device, dl *graph.Delta, prevLabels []int32, applied []graph.AppliedMutation, opts Options) (*CCResult, RepairInfo, error) {
	res := &CCResult{}
	r, err := newRun[*CCResult](d, &res.Result, &opts, 0)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	n := dl.NumVertices()
	if len(prevLabels) != n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: %d previous labels for %d vertices", len(prevLabels), n)
	}
	var info RepairInfo
	dg, err := r.repairGraph(dl, false, &info)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	labels := append([]int32(nil), prevLabels...)
	// Deletions may split a component: reset every member of a component
	// touched by a deletion. (Label propagation cannot raise labels, so a
	// split's new sub-component must restart from self-labels.)
	affected := make(map[int32]bool)
	for _, m := range applied {
		if m.Del {
			affected[labels[m.Src]] = true
			affected[labels[m.Dst]] = true
		}
	}
	seen := make(map[int32]bool)
	var seeds []int32
	invalidated := 0
	for v := 0; v < n; v++ {
		if affected[prevLabels[v]] {
			labels[v] = int32(v)
			invalidated++
			if !seen[int32(v)] {
				seen[int32(v)] = true
				seeds = append(seeds, int32(v))
			}
		}
	}
	for _, m := range applied {
		if !m.Del {
			for _, v := range [2]graph.VertexID{m.Src, m.Dst} {
				if !seen[int32(v)] {
					seen[int32(v)] = true
					seeds = append(seeds, int32(v))
				}
			}
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	dlabels := r.i32("icc.labels", n)
	copy(dlabels.Data(), labels)
	r.drainFrontier(n, seeds, "icc", "CC repair", func(frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32) simt.Kernel {
		return ccRepairKernel(dg, dlabels, frontier, next, nextCount, claim, frontierLen, negRound, r.sched)
	})
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Labels = append([]int32(nil), dlabels.Data()...)
	info.Invalidated, info.Seeds, info.Rounds = invalidated, len(seeds), res.Iterations
	return res, info, nil
}

// ccRepairKernel processes one frontier: each vertex first PULLS the minimum
// label over its neighbors onto itself (a reset vertex re-adopts a
// surviving component label even when no neighbor is in the frontier), then
// PUSHES its refreshed label outward over the same row, enqueueing
// neighbors whose label dropped.
func ccRepairKernel(dg *DeviceGraph, labels, frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, frontierLen, func(ts *vwarp.Tasks) {
			ts.LoadI32Grouped(frontier, ts.Task, ts.Task)
			ts.Row(dg.RowPtr, ts.Task)
			vidx := w.VecI32()
			their := w.VecI32()
			old := w.VecI32()
			w.Apply(1, func(lane int) { vidx[lane] = ts.Task[ts.Group(lane)] })
			ts.Edges(dg.Col, func(_, nbr []int32) {
				w.LoadI32(labels, nbr, their)
				w.AtomicMinI32(labels, vidx, their, old)
			})
			// Re-read the refreshed label, then push it outward.
			lbl := w.VecI32()
			ts.LoadI32Grouped(labels, ts.Task, lbl)
			mine := w.VecI32()
			w.Apply(1, func(lane int) { mine[lane] = lbl[ts.Group(lane)] })
			ts.Edges(dg.Col, func(_, nbr []int32) {
				w.AtomicMinI32(labels, nbr, mine, old)
				w.If(func(lane int) bool { return mine[lane] < old[lane] }, func() {
					enqueue(w, next, nextCount, claim, nbr, negRound)
				}, nil)
			})
		})
	}
}

// --- Delta PageRank ---------------------------------------------------------

// DeltaPageRank re-converges PageRank after mutations, warm-started from the
// previous rank vector: PageRank's run on the compacted graph, started from
// prev (nil cold starts at 1/n) and stopped when the L1 step delta falls
// below opts.Tolerance (default 1e-6) or at the iteration cap (default 50).
// For small batches the warm start re-converges in a few iterations where a
// cold run pays the full budget — the cycle saving EXPERIMENTS.md
// quantifies. prev must have one rank per vertex. Results match a converged
// full recompute to within the tolerance, not bit-exactly: the warm start
// stops at a different iterate.
func DeltaPageRank(d *simt.Device, dl *graph.Delta, prev []float32, opts PageRankOptions) (*PageRankResult, RepairInfo, error) {
	if opts.Iterations == 0 {
		opts.Iterations = 50
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = 1e-6
	}
	if err := dl.Validate(); err != nil {
		return nil, RepairInfo{}, err
	}
	g, _, err := dl.Compact()
	if err != nil {
		return nil, RepairInfo{}, err
	}
	res, err := complete(newPageRankRun(d, g, opts, prev, opts.Tolerance))
	if err != nil {
		return nil, RepairInfo{}, err
	}
	return res, RepairInfo{Rounds: res.Iterations, Graph: g}, nil
}
