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
// Phase 2 (device): decrease-only frontier relaxation over the overlay
// (base minus deletion marks plus extension edges), seeded from inserted
// edges' tails and from live in-neighbors of invalidated vertices. Monotone
// relaxation from over-estimates converges to the exact fixpoint, and a
// first-wrong-vertex argument shows the seed set reaches every vertex whose
// value must change — so the repaired result is bit-identical to a full
// recompute on the compacted graph.

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
// decrease-only relaxation over the overlay that drain a worklist seeded
// with seeds. Each round launches kernel over the current frontier; the
// kernel appends the next frontier through nextCount, deduplicated per round
// by a claim buffer driven by atomicMin on the negated round number (the
// machine has no atomicMax), so each vertex enters the next frontier once
// per round. what names the loop in errors, prefix its buffers. The run is
// done when the frontier drains, and fails if it overflows or is still
// non-empty after |V|+1 rounds.
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

// incScratchKey is the incScratch cache slot on a WarpCtx's KernelScratch.
const incScratchKey = "gpualgo.incremental"

// incScratch holds the per-warp working vectors and closures of the three
// incremental-repair kernels (repairRelax, ccRepair, dprPull). Like
// bfsScratch, it is cached on the warp context and survives kernel
// invocations and launches: the repair loops relaunch once per round, so in
// steady state the kernels allocate nothing — each bind* method rewrites
// the launch parameters and every closure reads them through the struct.
type incScratch struct {
	w *simt.WarpCtx

	// Per-invocation parameters, rewritten by the bind* methods. val is the
	// value buffer being repaired (distances for relax, labels for CC).
	ddg                            *DeviceDeltaGraph
	val, frontier, next, nextCount *simt.BufI32
	claim                          *simt.BufI32
	weighted                       bool
	negRound                       int32
	neutral                        int32
	contrib, nextF                 *simt.BufF32
	base, damping                  float32
	colB, wtB, delB                *simt.BufI32 // current SIMDRange pass's buffers

	ts *vwarp.Tasks // current invocation's task view (set by the bodies)

	// Per-group vectors, sized for the widest possible grouping (K=1).
	dv, start, end, extStart, extEnd, taskP1, lbl []int32
	sums, vals                                    []float32
	// Per-lane vectors.
	nbr, dm, wt, cand, old, cold, slot, vidx, mine []int32
	negR, zero, one                                []int32
	acc, cf                                        []float32

	incSisdP1 func(gi int)
	improved  func(lane int) bool
	enqueue   func()
	claimWon  func(lane int) bool
	pushNext  func()

	relaxBody func(ts *vwarp.Tasks)
	relaxSIMD func(j []int32)
	relaxCand func(lane int)

	ccBody       func(ts *vwarp.Tasks)
	ccPullSIMD   func(j []int32)
	ccPushSIMD   func(j []int32)
	ccVidx       func(lane int)
	ccMine       func(lane int)
	ccNeutralize func(lane int)
	ccCandDel    func(lane int)
	ccCandLive   func(lane int)

	dprBody     func(ts *vwarp.Tasks)
	dprBaseSIMD func(j []int32)
	dprExtSIMD  func(j []int32)
	dprZero     func(lane int)
	dprAccLive  func(lane int)
	dprAccAll   func(lane int)
	dprFinish   func(gi int)
}

// incScratchFor returns the context's cached scratch, building it on first
// use of this warp context by an incremental kernel.
func incScratchFor(w *simt.WarpCtx) *incScratch {
	if s, ok := w.KernelScratch(incScratchKey).(*incScratch); ok {
		return s
	}
	width := w.Width()
	s := &incScratch{
		w:        w,
		dv:       make([]int32, width),
		start:    make([]int32, width),
		end:      make([]int32, width),
		extStart: make([]int32, width),
		extEnd:   make([]int32, width),
		taskP1:   make([]int32, width),
		lbl:      make([]int32, width),
		sums:     make([]float32, width),
		vals:     make([]float32, width),
		nbr:      make([]int32, width),
		dm:       make([]int32, width),
		wt:       make([]int32, width),
		cand:     make([]int32, width),
		old:      make([]int32, width),
		cold:     make([]int32, width),
		slot:     make([]int32, width),
		vidx:     make([]int32, width),
		mine:     make([]int32, width),
		negR:     make([]int32, width),
		zero:     make([]int32, width),
		one:      make([]int32, width),
		acc:      make([]float32, width),
		cf:       make([]float32, width),
	}
	for i := range s.one {
		s.one[i] = 1
	}
	s.incSisdP1 = func(gi int) { s.taskP1[gi] = s.ts.Task[gi] + 1 }
	s.improved = func(lane int) bool { return s.cand[lane] < s.old[lane] }
	s.claimWon = func(lane int) bool { return s.cold[lane] > s.negRound }
	s.pushNext = func() {
		s.w.AtomicAddI32(s.nextCount, s.zero, s.one, s.slot)
		s.w.StoreI32(s.next, s.slot, s.nbr)
	}
	s.enqueue = func() {
		// First claimant this round enqueues the vertex.
		s.w.AtomicMinI32(s.claim, s.nbr, s.negR, s.cold)
		s.w.If(s.claimWon, s.pushNext, nil)
	}

	s.relaxCand = func(lane int) {
		c := s.dv[s.ts.Group(lane)] + 1
		if s.wtB != nil {
			c = s.dv[s.ts.Group(lane)] + s.wt[lane]
		}
		if s.delB != nil && s.dm[lane] != 0 {
			c = cpualgo.InfDist
		}
		s.cand[lane] = c
	}
	s.relaxSIMD = func(j []int32) {
		s.w.LoadI32(s.colB, j, s.nbr)
		if s.delB != nil {
			s.w.LoadI32(s.delB, j, s.dm)
		}
		if s.wtB != nil {
			s.w.LoadI32(s.wtB, j, s.wt)
		}
		s.w.Apply(1, s.relaxCand)
		s.w.AtomicMinI32(s.val, s.nbr, s.cand, s.old)
		s.w.If(s.improved, s.enqueue, nil)
	}
	s.relaxBody = func(ts *vwarp.Tasks) {
		s.ts = ts
		// Indirect through the frontier: the task id is a queue slot.
		ts.LoadI32Grouped(s.frontier, ts.Task, ts.Task)
		ts.LoadI32Grouped(s.val, ts.Task, s.dv)
		ts.SISD(1, s.incSisdP1)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, ts.Task, s.start)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, s.taskP1, s.end)
		s.colB, s.delB = s.ddg.Base.Col, s.ddg.Del
		s.wtB = nil
		if s.weighted {
			s.wtB = s.ddg.Base.Weights
		}
		ts.SIMDRange(s.start, s.end, s.relaxSIMD)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, ts.Task, s.start)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, s.taskP1, s.end)
		s.colB, s.delB = s.ddg.ExtCol, nil
		if s.weighted {
			s.wtB = s.ddg.ExtWeights
		}
		ts.SIMDRange(s.start, s.end, s.relaxSIMD)
	}

	s.ccVidx = func(lane int) { s.vidx[lane] = s.ts.Task[s.ts.Group(lane)] }
	s.ccMine = func(lane int) { s.mine[lane] = s.lbl[s.ts.Group(lane)] }
	s.ccNeutralize = func(lane int) {
		if s.dm[lane] != 0 {
			s.their()[lane] = s.neutral
		}
	}
	s.ccCandDel = func(lane int) {
		if s.dm[lane] != 0 {
			s.cand[lane] = s.neutral
		} else {
			s.cand[lane] = s.mine[lane]
		}
	}
	s.ccCandLive = func(lane int) { s.cand[lane] = s.mine[lane] }
	s.ccPullSIMD = func(j []int32) {
		s.w.LoadI32(s.colB, j, s.nbr)
		if s.delB != nil {
			s.w.LoadI32(s.delB, j, s.dm)
		}
		s.w.LoadI32(s.val, s.nbr, s.their())
		if s.delB != nil {
			s.w.Apply(1, s.ccNeutralize)
		}
		s.w.AtomicMinI32(s.val, s.vidx, s.their(), s.old)
	}
	s.ccPushSIMD = func(j []int32) {
		s.w.LoadI32(s.colB, j, s.nbr)
		if s.delB != nil {
			s.w.LoadI32(s.delB, j, s.dm)
			s.w.Apply(1, s.ccCandDel)
		} else {
			s.w.Apply(1, s.ccCandLive)
		}
		s.w.AtomicMinI32(s.val, s.nbr, s.cand, s.old)
		s.w.If(s.improved, s.enqueue, nil)
	}
	s.ccBody = func(ts *vwarp.Tasks) {
		s.ts = ts
		ts.LoadI32Grouped(s.frontier, ts.Task, ts.Task)
		ts.SISD(1, s.incSisdP1)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, ts.Task, s.start)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, s.taskP1, s.end)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, ts.Task, s.extStart)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, s.taskP1, s.extEnd)
		s.w.Apply(1, s.ccVidx)
		s.colB, s.delB = s.ddg.Base.Col, s.ddg.Del
		ts.SIMDRange(s.start, s.end, s.ccPullSIMD)
		s.colB, s.delB = s.ddg.ExtCol, nil
		ts.SIMDRange(s.extStart, s.extEnd, s.ccPullSIMD)
		// Re-read the refreshed label, then push it outward.
		ts.LoadI32Grouped(s.val, ts.Task, s.lbl)
		s.w.Apply(1, s.ccMine)
		s.colB, s.delB = s.ddg.Base.Col, s.ddg.Del
		ts.SIMDRange(s.start, s.end, s.ccPushSIMD)
		s.colB, s.delB = s.ddg.ExtCol, nil
		ts.SIMDRange(s.extStart, s.extEnd, s.ccPushSIMD)
	}

	s.dprZero = func(lane int) { s.acc[lane] = 0 }
	s.dprAccLive = func(lane int) {
		if s.dm[lane] == 0 {
			s.acc[lane] += s.cf[lane]
		}
	}
	s.dprAccAll = func(lane int) { s.acc[lane] += s.cf[lane] }
	s.dprFinish = func(gi int) { s.vals[gi] = s.base + s.damping*s.sums[gi] }
	s.dprBaseSIMD = func(j []int32) {
		s.w.LoadI32(s.ddg.Base.Col, j, s.nbr)
		s.w.LoadI32(s.ddg.Del, j, s.dm)
		s.w.LoadF32(s.contrib, s.nbr, s.cf)
		s.w.Apply(1, s.dprAccLive)
	}
	s.dprExtSIMD = func(j []int32) {
		s.w.LoadI32(s.ddg.ExtCol, j, s.nbr)
		s.w.LoadF32(s.contrib, s.nbr, s.cf)
		s.w.Apply(1, s.dprAccAll)
	}
	s.dprBody = func(ts *vwarp.Tasks) {
		s.ts = ts
		ts.SISD(1, s.incSisdP1)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, ts.Task, s.start)
		ts.LoadI32Grouped(s.ddg.Base.RowPtr, s.taskP1, s.end)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, ts.Task, s.extStart)
		ts.LoadI32Grouped(s.ddg.ExtRowPtr, s.taskP1, s.extEnd)
		s.w.Apply(1, s.dprZero)
		ts.SIMDRange(s.start, s.end, s.dprBaseSIMD)
		ts.SIMDRange(s.extStart, s.extEnd, s.dprExtSIMD)
		ts.ReduceAddF32(s.acc, s.sums)
		ts.SISD(1, s.dprFinish)
		ts.StoreF32Grouped(s.nextF, ts.Task, s.vals, nil)
	}

	w.SetKernelScratch(incScratchKey, s)
	return s
}

// their aliases the wt vector for the CC kernel's neighbor-label pass (the
// two kernels never run in the same invocation, so the lanes never clash).
func (s *incScratch) their() []int32 { return s.wt }

// bindRelax rewrites the scratch for one repairRelaxKernel invocation.
func (s *incScratch) bindRelax(ddg *DeviceDeltaGraph, val, frontier, next, nextCount, claim *simt.BufI32, negRound int32, weighted bool) {
	s.ddg, s.val, s.frontier, s.next, s.nextCount, s.claim = ddg, val, frontier, next, nextCount, claim
	s.negRound, s.weighted = negRound, weighted
	for i := range s.negR {
		s.negR[i] = negRound
	}
}

// bindCC rewrites the scratch for one ccRepairKernel invocation.
func (s *incScratch) bindCC(ddg *DeviceDeltaGraph, labels, frontier, next, nextCount, claim *simt.BufI32, negRound, neutral int32) {
	s.ddg, s.val, s.frontier, s.next, s.nextCount, s.claim = ddg, labels, frontier, next, nextCount, claim
	s.negRound, s.neutral = negRound, neutral
	for i := range s.negR {
		s.negR[i] = negRound
	}
}

// bindDPR rewrites the scratch for one dprPullKernel invocation.
func (s *incScratch) bindDPR(ddg *DeviceDeltaGraph, contrib, next *simt.BufF32, base, damping float32) {
	s.ddg, s.contrib, s.nextF, s.base, s.damping = ddg, contrib, next, base, damping
}

// repairRelaxKernel relaxes the out-edges of one frontier's vertices over
// the overlay: the masked base pass first, then the extension pass. Deleted
// base lanes relax with an InfDist candidate (a no-op on the min), which
// keeps the warp convergent instead of branching around dead edges.
func repairRelaxKernel(ddg *DeviceDeltaGraph, val, frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32, weighted bool, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		s := incScratchFor(w)
		s.bindRelax(ddg, val, frontier, next, nextCount, claim, negRound, weighted)
		vwarp.ForEachStatic(w, opts.K, frontierLen, s.relaxBody)
	}
}

// IncrementalBFS repairs prevLevels (a BFS result for the pre-batch graph
// from the same source, Unvisited convention) after the mutation batches
// whose effective changes are applied, yielding levels bit-identical to a
// full BFS on the compacted graph. ddg must be the forward upload of dl at
// its current epoch (nil uploads one).
func IncrementalBFS(d *simt.Device, dl *graph.Delta, ddg *DeviceDeltaGraph, src graph.VertexID, prevLevels []int32, applied []graph.AppliedMutation, opts Options) (*BFSResult, RepairInfo, error) {
	res := &BFSResult{}
	r, err := newRun[*BFSResult](d, &res.Result, &opts)
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
	if ddg == nil {
		if ddg, err = UploadDelta(d, dl); err != nil {
			return nil, RepairInfo{}, err
		}
	}
	if err := checkDeltaEpoch(ddg, dl); err != nil {
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
		return repairRelaxKernel(ddg, dval, frontier, next, nextCount, claim, frontierLen, negRound, false, opts)
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
	return res, RepairInfo{Invalidated: len(invalidated), Seeds: len(seeds), Rounds: res.Iterations}, nil
}

// IncrementalSSSP repairs prevDist (an SSSP result for the pre-batch graph
// from the same source, cpualgo.InfDist convention) after the mutation
// batches whose effective changes are applied, yielding distances
// bit-identical to a full SSSP on the compacted graph. The delta must be
// weighted; ddg must be the forward upload of dl at its current epoch (nil
// uploads one).
func IncrementalSSSP(d *simt.Device, dl *graph.Delta, ddg *DeviceDeltaGraph, src graph.VertexID, prevDist []int32, applied []graph.AppliedMutation, opts Options) (*SSSPResult, RepairInfo, error) {
	res := &SSSPResult{}
	r, err := newRun[*SSSPResult](d, &res.Result, &opts)
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
	if ddg == nil {
		if ddg, err = UploadDelta(d, dl); err != nil {
			return nil, RepairInfo{}, err
		}
	}
	if err := checkDeltaEpoch(ddg, dl); err != nil {
		return nil, RepairInfo{}, err
	}
	val := append([]int32(nil), prevDist...)
	invalidated := invalidateStale(dl, src, val, applied, false)
	seeds := repairSeeds(dl, val, applied, invalidated)

	dval := r.i32("isssp.val", n)
	copy(dval.Data(), val)
	r.drainFrontier(n, seeds, "repair", "repair", func(frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32) simt.Kernel {
		return repairRelaxKernel(ddg, dval, frontier, next, nextCount, claim, frontierLen, negRound, true, opts)
	})
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Dist = append([]int32(nil), dval.Data()...)
	return res, RepairInfo{Invalidated: len(invalidated), Seeds: len(seeds), Rounds: res.Iterations}, nil
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
// graph. ddg must be the forward upload of dl at its current epoch (nil
// uploads one).
func IncrementalCC(d *simt.Device, dl *graph.Delta, ddg *DeviceDeltaGraph, prevLabels []int32, applied []graph.AppliedMutation, opts Options) (*CCResult, RepairInfo, error) {
	res := &CCResult{}
	r, err := newRun[*CCResult](d, &res.Result, &opts)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	n := dl.NumVertices()
	if len(prevLabels) != n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: %d previous labels for %d vertices", len(prevLabels), n)
	}
	if ddg == nil {
		if ddg, err = UploadDelta(d, dl); err != nil {
			return nil, RepairInfo{}, err
		}
	}
	if err := checkDeltaEpoch(ddg, dl); err != nil {
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
		return ccRepairKernel(ddg, dlabels, frontier, next, nextCount, claim, frontierLen, negRound, opts)
	})
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Labels = append([]int32(nil), dlabels.Data()...)
	return res, RepairInfo{Invalidated: invalidated, Seeds: len(seeds), Rounds: res.Iterations}, nil
}

// ccRepairKernel processes one frontier: each vertex first PULLS the minimum
// label over its live neighbors onto itself (a reset vertex re-adopts a
// surviving component label even when no neighbor is in the frontier), then
// PUSHES its refreshed label outward, enqueueing neighbors whose label
// dropped. Deleted base lanes participate with a neutral candidate (>= any
// live label) so the warp stays convergent.
func ccRepairKernel(ddg *DeviceDeltaGraph, labels, frontier, next, nextCount, claim *simt.BufI32, frontierLen, negRound int32, opts Options) simt.Kernel {
	neutral := int32(ddg.NumVertices) // labels are vertex ids < n
	return func(w *simt.WarpCtx) {
		s := incScratchFor(w)
		s.bindCC(ddg, labels, frontier, next, nextCount, claim, negRound, neutral)
		vwarp.ForEachStatic(w, opts.K, frontierLen, s.ccBody)
	}
}

// --- Delta PageRank ---------------------------------------------------------

// DeltaPageRank re-converges PageRank after mutations, warm-started from the
// previous rank vector: pull-based power iteration over the REVERSE overlay
// (rddg, from UploadDeltaReverse) with live out-degrees, stopping when the
// L1 step delta falls below opts.Tolerance (default 1e-6) or the iteration
// cap is hit. For small batches the warm start re-converges in a few
// iterations where a cold run pays the full budget — the cycle saving
// EXPERIMENTS.md quantifies. prev must have one rank per vertex (nil cold
// starts at 1/n). Results match a converged full recompute to within the
// tolerance, not bit-exactly: float accumulation order differs from the
// non-overlay pull kernel.
func DeltaPageRank(d *simt.Device, dl *graph.Delta, rddg *DeviceDeltaGraph, prev []float32, opts PageRankOptions) (*PageRankResult, RepairInfo, error) {
	res := &PageRankResult{}
	r, err := newRun[*PageRankResult](d, &res.Result, &opts.Options)
	if err != nil {
		return nil, RepairInfo{}, err
	}
	if opts.Damping == 0 {
		opts.Damping = 0.85
	}
	if opts.Damping < 0 || opts.Damping >= 1 {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: damping %f outside [0,1)", opts.Damping)
	}
	if opts.Iterations == 0 {
		opts.Iterations = 50
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = 1e-6
	}
	n := dl.NumVertices()
	if n == 0 {
		return res, RepairInfo{}, nil
	}
	if prev != nil && len(prev) != n {
		return nil, RepairInfo{}, fmt.Errorf("gpualgo: %d previous ranks for %d vertices", len(prev), n)
	}
	if rddg == nil {
		if rddg, err = UploadDeltaReverse(d, dl); err != nil {
			return nil, RepairInfo{}, err
		}
	}
	if err := checkDeltaEpoch(rddg, dl); err != nil {
		return nil, RepairInfo{}, err
	}
	outDeg := dl.LiveOutDegrees()
	dOutDeg := r.uploadI32("dpr.outdeg", outDeg)
	rank := r.f32("dpr.rank", n)
	contrib := r.f32("dpr.contrib", n)
	next := r.f32("dpr.next", n)
	if prev != nil {
		copy(rank.Data(), prev)
	} else {
		rank.Fill(1 / float32(n))
	}
	lc := r.grid(n)
	r.round = func() (bool, error) {
		iter := res.Iterations
		base := prBase(rank.Data(), outDeg, opts.Damping)
		if err := r.launch(lc, prContribKernel(n, rank, contrib, dOutDeg), "delta PageRank contrib iter %d", iter); err != nil {
			return false, err
		}
		if err := r.launch(lc, dprPullKernel(rddg, contrib, next, base, opts), "delta PageRank pull iter %d", iter); err != nil {
			return false, err
		}
		var l1 float32
		for v := 0; v < n; v++ {
			diff := next.Data()[v] - rank.Data()[v]
			if diff < 0 {
				diff = -diff
			}
			l1 += diff
		}
		rank, next = next, rank
		return l1 < opts.Tolerance || iter+1 >= opts.Iterations, nil
	}
	if err := finish(r); err != nil {
		return nil, RepairInfo{}, err
	}
	res.Ranks = append([]float32(nil), rank.Data()...)
	return res, RepairInfo{Rounds: res.Iterations}, nil
}

// dprPullKernel computes next[v] = base + d * sum over live in-neighbors of
// contrib[u], over the reverse overlay (masked reverse base, then reverse
// extension). Deleted lanes contribute zero instead of diverging.
func dprPullKernel(rddg *DeviceDeltaGraph, contrib, next *simt.BufF32, base float32, opts PageRankOptions) simt.Kernel {
	return func(w *simt.WarpCtx) {
		s := incScratchFor(w)
		s.bindDPR(rddg, contrib, next, base, opts.Damping)
		vwarp.ForEachStatic(w, opts.K, int32(rddg.NumVertices), s.dprBody)
	}
}
