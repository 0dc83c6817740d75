// Package vwarp implements the paper's virtual warp-centric programming
// method (Hong et al., PPoPP 2011) on top of the simt substrate.
//
// A physical warp of width W is divided into W/K virtual warps of width K.
// Each virtual warp owns one task (typically a vertex) at a time and
// processes it in two phases:
//
//   - a replicated (SISD) phase, where every lane of the virtual warp
//     executes the same scalar instruction stream (Tasks.SISD,
//     Tasks.LoadI32Grouped), paying no divergence but wasting K-1 of every
//     K lanes; and
//   - a SIMD phase (Tasks.Edges over the row Tasks.Row loaded), where the
//     K lanes cooperatively stride over the task's adjacency list, so a
//     heavy task is spread across lanes instead of serializing one lane.
//
// K is the trade-off knob: K=1 degenerates to the classic thread-per-task
// mapping (maximum ALU use, maximum imbalance), K=W is full warp-per-task
// (minimum imbalance, most replication waste).
//
// ForEach deals the tasks to virtual warps under a Schedule: K plus a
// stride, blocked or dynamic dealing mode, the last being the paper's
// dynamic workload distribution via a global task counter. A Schedule may
// also carry the paper's other auxiliary technique, deferring outliers to a
// global queue (OutlierQueue): Row queues every task whose row is too long,
// and a follow-up launch reruns them at maximum parallelism.
//
// Kernels write both phases as closures, and the helpers call the closures
// they are given in place, so every closure in a kernel body stays on the
// running warp's stack and a round allocates nothing. The helpers share a
// Tasks's working vectors, which leaves one rule: Edges and GroupLoop must
// not be re-entered from their own callback, and a predicate must not call
// a helper.
package vwarp

import (
	"fmt"
	"math"

	"maxwarp/internal/simt"
)

// Tasks is the per-round view a body callback receives: each virtual-warp
// group g of width K holds task Task[g] (or -1 when the group is idle this
// round). All per-group slices have length Groups.
//
// A Tasks is cached on its warp context (simt.WarpCtx.KernelScratch) and
// reused across rounds, kernel invocations and launches, so its working
// vectors are allocated once per warp context. The helpers below call the
// closures they are given, and every closure they build is handed straight
// to a simt primitive, so none of them allocates. The cost of sharing the
// working vectors is a narrow non-reentrancy rule: Edges and GroupLoop must
// not be re-entered from their own callback (no Edges inside an Edges body),
// and a predicate must not call a helper. Everything else nests freely
// (Mask inside Mask, Edges inside GroupLoop, SISD inside SISD, ...).
type Tasks struct {
	// W is the underlying physical-warp context; kernels may use it directly
	// for per-lane (SIMD-phase) operations.
	W *simt.WarpCtx
	// K is the virtual warp width.
	K int
	// Groups is W.Width()/K, the number of virtual warps per physical warp.
	Groups int
	// Task holds each group's current task id, -1 when idle.
	Task []int32
	// Start and End hold each group's row range [Start[g], End[g]) as the
	// last Row call loaded it.
	Start, End []int32

	// Scratch vectors, allocated once when the Tasks is built (they must not
	// come from the register file — that is reclaimed every invocation, but
	// this struct outlives invocations). Each is private to a single helper
	// call; none carries state between calls.
	laneIdx   []int32   // per-lane replicated index vector
	laneVal   []int32   // per-lane value vector
	laneF32   []float32 // per-lane float value vector
	laneOld   []int32   // atomic old-value landing pad
	laneSum   []int32   // int reduction result vector
	laneSumF  []float32 // float reduction result vector
	leaders   []bool    // per-lane group-leader marks
	edgeJ     []int32   // Edges per-lane position vector
	nbr       []int32   // Edges per-lane neighbor vector
	dealt     []int32   // the ids ForEach dealt this round, for deferral
	groupPos  []int32   // GroupLoop per-group position vector
	rowNext   []int32   // Row per-group idx+1 vector
	zeroV     []int32   // all-zero constant vector
	oneV      []int32   // all-one constant vector
	fcChunkV  []int32   // dynamic claim: the chunk size in every lane
	fcOld     []int32   // dynamic claim: the counter's old value
	deferSlot []int32   // deferral: each leader's queue slot
	deferIDs  []int32   // deferral: each leader's dealt id

	outliers *OutlierQueue // the schedule's, nil when not deferring
}

// tasksScratchKey is the Tasks cache slot on a WarpCtx's KernelScratch.
const tasksScratchKey = "vwarp.tasks"

func newTasks(w *simt.WarpCtx, k int) *Tasks {
	width := w.Width()
	if k < 1 || k > width || width%k != 0 {
		panic(fmt.Sprintf("vwarp: virtual warp width %d invalid for physical width %d", k, width))
	}
	if t, ok := w.KernelScratch(tasksScratchKey).(*Tasks); ok && t.K == k {
		return t
	}
	groups := width / k
	t := &Tasks{
		W:         w,
		K:         k,
		Groups:    groups,
		Task:      make([]int32, groups),
		Start:     make([]int32, groups),
		End:       make([]int32, groups),
		laneIdx:   make([]int32, width),
		laneVal:   make([]int32, width),
		laneF32:   make([]float32, width),
		laneOld:   make([]int32, width),
		laneSum:   make([]int32, width),
		laneSumF:  make([]float32, width),
		leaders:   make([]bool, width),
		edgeJ:     make([]int32, width),
		nbr:       make([]int32, width),
		dealt:     make([]int32, groups),
		groupPos:  make([]int32, groups),
		rowNext:   make([]int32, groups),
		zeroV:     make([]int32, width),
		oneV:      make([]int32, width),
		fcChunkV:  make([]int32, width),
		fcOld:     make([]int32, width),
		deferSlot: make([]int32, width),
		deferIDs:  make([]int32, width),
	}
	for i := range t.oneV {
		t.oneV[i] = 1
	}
	w.SetKernelScratch(tasksScratchKey, t)
	return t
}

// Group returns the virtual-warp group a lane belongs to.
func (t *Tasks) Group(lane int) int { return lane / t.K }

// LaneInGroup returns a lane's index within its virtual warp.
func (t *Tasks) LaneInGroup(lane int) int { return lane % t.K }

// Valid reports whether group g has a task this round.
func (t *Tasks) Valid(g int) bool { return t.Task[g] >= 0 }

// SISD runs f once per active virtual warp, charged as `instrs` replicated
// warp instructions (every hardware lane busy, one useful result per group).
func (t *Tasks) SISD(instrs int, f func(g int)) {
	t.W.ApplyReplicated(instrs, t.K, func(g int) {
		if t.Valid(g) {
			f(g)
		}
	})
}

// LoadI32Grouped performs the replicated-phase load dst[g] = buf[idx[g]] for
// every active group. All K lanes of a group issue the same address, exactly
// like replicated scalar code on hardware; coalescing collapses them into
// one transaction per touched segment.
func (t *Tasks) LoadI32Grouped(buf *simt.BufI32, idx, dst []int32) {
	w := t.W
	t.replicateI32(idx, t.laneIdx)
	w.LoadI32Replicated(t.K, buf, t.laneIdx, t.laneVal)
	for g := 0; g < t.Groups; g++ {
		if lane := t.firstActiveLane(g); lane >= 0 {
			dst[g] = t.laneVal[lane]
		}
	}
}

// Row loads each active group's CSR row range into Start and End:
// Start[g] = rowPtr[idx[g]] and End[g] = rowPtr[idx[g]+1], two replicated
// loads around one SISD increment — the SISD phase every adjacency kernel
// opens with. Under a deferring schedule's main pass, Row then queues every
// group whose row is longer than the queue's threshold (see OutlierQueue);
// a queued group is idle (Task -1) for the rest of the body, while a group
// that finds the queue full stays and runs inline.
func (t *Tasks) Row(rowPtr *simt.BufI32, idx []int32) {
	t.LoadI32Grouped(rowPtr, idx, t.Start)
	next := t.rowNext
	t.SISD(1, func(g int) { next[g] = idx[g] + 1 })
	t.LoadI32Grouped(rowPtr, next, t.End)
	if q := t.outliers; q != nil && q.rerun == 0 {
		t.deferLong(q)
	}
}

// deferLong appends the id ForEach dealt each long-row group to queue q:
// the group's leader lane claims a slot with one atomic on the count cell
// and stores the id if the slot fits.
func (t *Tasks) deferLong(q *OutlierQueue) {
	w := t.W
	t.leaderLanes()
	long := func(g int) bool { return t.End[g]-t.Start[g] > q.Threshold }
	lead := func(lane int) bool { return t.leads(lane, long) }
	fits := func(lane int) bool { return t.deferSlot[lane] < int32(q.Items.Len()) }
	w.If(lead, func() {
		w.AtomicAddI32(q.Count, t.zeroV, t.oneV, t.deferSlot)
		w.Apply(1, func(lane int) { t.deferIDs[lane] = t.dealt[t.Group(lane)] })
		w.If(fits, func() { w.StoreI32(q.Items, t.deferSlot, t.deferIDs) }, nil)
	}, nil)
	for lane := range t.leaders {
		if lead(lane) && fits(lane) {
			t.Task[t.Group(lane)] = -1
		}
	}
}

// Edges is the SIMD phase over the rows the last Row call loaded: for each
// active group, the K lanes stride over [Start[g], End[g]), and each round
// loads the neighbors nbr[lane] = col[j[lane]] before it runs body. Lanes
// whose position has run past their group's end are masked off, so
// trip-count differences between groups cost idle lanes — the residual
// intra-warp imbalance the paper tunes with K. Work between Row and Edges
// (a broadcast, an accumulator fill, a reload) keeps its place, and a
// second Edges may stride the same rows again.
func (t *Tasks) Edges(col *simt.BufI32, body func(j, nbr []int32)) {
	w, j, nbr := t.W, t.edgeJ, t.nbr
	w.Apply(1, func(lane int) { j[lane] = t.Start[t.Group(lane)] + int32(t.LaneInGroup(lane)) })
	w.While(func(lane int) bool {
		g := t.Group(lane)
		return t.Valid(g) && j[lane] < t.End[g]
	}, func() {
		w.LoadI32(col, j, nbr)
		body(j, nbr)
		w.AddConstI32(j, int32(t.K))
	})
}

// StoreI32Grouped performs the replicated-phase store buf[idx[g]] = val[g]
// for every active group for which pred holds (nil pred = all). Only the
// group leader lane writes, like "if (lane_of_vw == 0)" in CUDA code.
func (t *Tasks) StoreI32Grouped(buf *simt.BufI32, idx, val []int32, pred func(g int) bool) {
	t.leaderLanes()
	t.replicateI32Pair(idx, val)
	t.W.If(func(lane int) bool { return t.leads(lane, pred) }, func() {
		t.W.StoreI32(buf, t.laneIdx, t.laneVal)
	}, nil)
}

// AtomicAddGrouped atomically adds delta[g] to buf[idx[g]] once per active
// group for which pred holds, placing the previous value in old[g] (old may
// be nil). One lane per group performs the atomic, as hardware code would.
func (t *Tasks) AtomicAddGrouped(buf *simt.BufI32, idx, delta, old []int32, pred func(g int) bool) {
	t.leaderLanes()
	t.replicateI32Pair(idx, delta)
	t.W.If(func(lane int) bool { return t.leads(lane, pred) }, func() {
		t.W.AtomicAddI32(buf, t.laneIdx, t.laneVal, t.laneOld)
	}, nil)
	if old != nil {
		for g := 0; g < t.Groups; g++ {
			if lane := t.firstActiveLane(g); lane >= 0 {
				old[g] = t.laneOld[lane]
			}
		}
	}
}

// Mask narrows execution to the groups passing pred for the duration of
// body — the virtual-warp analogue of "if (condition) { ... }" in scalar
// kernel code. Groups failing pred sit idle (divergence cost applies when
// some groups pass and some fail).
func (t *Tasks) Mask(pred func(g int) bool, body func()) {
	t.W.IfGrouped(t.K, func(lane int) bool {
		g := t.Group(lane)
		return t.Valid(g) && pred(g)
	}, body, nil)
}

// LoadF32Grouped is the float32 variant of LoadI32Grouped: the replicated
// per-group gather dst[g] = buf[idx[g]].
func (t *Tasks) LoadF32Grouped(buf *simt.BufF32, idx []int32, dst []float32) {
	w := t.W
	t.replicateI32(idx, t.laneIdx)
	w.LoadF32Replicated(t.K, buf, t.laneIdx, t.laneF32)
	for g := 0; g < t.Groups; g++ {
		if lane := t.firstActiveLane(g); lane >= 0 {
			dst[g] = t.laneF32[lane]
		}
	}
}

// StoreF32Grouped is the float32 variant of StoreI32Grouped: the group
// leader writes buf[idx[g]] = val[g] for groups passing pred (nil = all).
func (t *Tasks) StoreF32Grouped(buf *simt.BufF32, idx []int32, val []float32, pred func(g int) bool) {
	t.leaderLanes()
	t.W.ApplyReplicated(1, t.K, func(g int) {
		base := g * t.K
		i, v := idx[g], val[g]
		for lane := base; lane < base+t.K; lane++ {
			t.laneIdx[lane] = i
			t.laneF32[lane] = v
		}
	})
	t.W.If(func(lane int) bool { return t.leads(lane, pred) }, func() {
		t.W.StoreF32(buf, t.laneIdx, t.laneF32)
	}, nil)
}

// ReduceAddF32 sums the per-lane values of src within each group (a
// shuffle-tree reduction) and writes the per-group totals to dst.
func (t *Tasks) ReduceAddF32(src []float32, dst []float32) {
	w := t.W
	laneSum := t.laneSumF
	w.GroupReduceAddF32(t.K, src, laneSum)
	for g := 0; g < t.Groups; g++ {
		if lane := t.firstActiveLane(g); lane >= 0 {
			dst[g] = laneSum[lane]
		}
	}
}

// ReduceAddI32 sums the per-lane values of src within each group and writes
// the per-group totals to dst.
func (t *Tasks) ReduceAddI32(src []int32, dst []int32) {
	w := t.W
	laneSum := t.laneSum
	w.GroupReduceAddI32(t.K, src, laneSum)
	for g := 0; g < t.Groups; g++ {
		if lane := t.firstActiveLane(g); lane >= 0 {
			dst[g] = laneSum[lane]
		}
	}
}

// replicateI32 broadcasts per-group values to every lane of the group,
// charged as one replicated warp instruction (this is exactly what the
// SISD-phase address computation costs on hardware: all lanes busy, one
// useful result per virtual warp).
func (t *Tasks) replicateI32(src []int32, dst []int32) {
	t.W.ApplyReplicated(1, t.K, func(g int) {
		base := g * t.K
		v := src[g]
		for lane := base; lane < base+t.K; lane++ {
			dst[lane] = v
		}
	})
}

// replicateI32Pair broadcasts two per-group vectors into laneIdx/laneVal in
// one replicated instruction.
func (t *Tasks) replicateI32Pair(srcA, srcB []int32) {
	t.W.ApplyReplicated(1, t.K, func(g int) {
		base := g * t.K
		a, b := srcA[g], srcB[g]
		for lane := base; lane < base+t.K; lane++ {
			t.laneIdx[lane] = a
			t.laneVal[lane] = b
		}
	})
}

// GroupLoop iterates each group sequentially over [start[g], end[g]): every
// round, body sees pos (per group, the group's current position); groups
// that finish early sit masked out until the loop drains. Use it for the
// replicated-phase outer loops of nested-iteration kernels (e.g. "for each
// neighbor v of u" in triangle counting, with a SIMD phase inside).
func (t *Tasks) GroupLoop(start, end []int32, body func(pos []int32)) {
	pos := t.groupPos
	copy(pos, start[:t.Groups])
	t.W.While(func(lane int) bool {
		g := t.Group(lane)
		return t.Valid(g) && pos[g] < end[g]
	}, func() {
		body(pos)
		t.SISD(1, func(g int) { pos[g]++ })
	})
}

// firstActiveLane returns the lowest active lane of group g, or -1.
func (t *Tasks) firstActiveLane(g int) int {
	base := g * t.K
	for lane := base; lane < base+t.K; lane++ {
		if t.W.LaneActive(lane) {
			return lane
		}
	}
	return -1
}

// leaderLanes marks the first active lane of each group in the reusable
// leaders scratch (recomputed every call — leadership depends on the live
// mask).
func (t *Tasks) leaderLanes() {
	clear(t.leaders)
	for g := 0; g < t.Groups; g++ {
		if lane := t.firstActiveLane(g); lane >= 0 {
			t.leaders[lane] = true
		}
	}
}

// leads reports whether lane writes for its group in a grouped store,
// atomic or deferral: it is the group's leader as the last leaderLanes
// call marked it, the group has a task, and pred (nil = all groups) holds.
func (t *Tasks) leads(lane int, pred func(g int) bool) bool {
	g := t.Group(lane)
	return t.leaders[lane] && t.Valid(g) && (pred == nil || pred(g))
}

// Schedule is how ForEach deals tasks to the grid's virtual warps: the
// virtual warp width K and one dealing mode. The default mode is stride:
// round r hands virtual warp i task i + r*(virtual warps in the grid).
// Blocked hands each virtual warp one contiguous range of ceil(n/virtual
// warps) tasks — the paper-era static partitioning that stride improves on,
// kept as the baseline for the dynamic-distribution comparison (E7): when
// hot vertices cluster in id space, it concentrates them in few virtual
// warps. A non-nil Counter selects the paper's dynamic workload
// distribution: physical warps claim Chunk tasks at a time from Counter[0],
// which must be zero when the launch starts. A non-nil Outliers defers
// long rows to that queue (see OutlierQueue and Row).
type Schedule struct {
	K        int
	Blocked  bool
	Counter  *simt.BufI32
	Chunk    int32
	Outliers *OutlierQueue
}

// ForEach distributes tasks [0, numTasks) over the grid's virtual warps
// under schedule s and invokes body once per round with the warp's task
// assignment. Under dynamic distribution one lane of the physical warp
// atomically advances the counter by Chunk and broadcasts the claimed base
// index to the warp; the claimed tasks are dealt to the warp's virtual warps
// round-robin. In the rerun pass of s.Outliers, ForEach instead deals the
// queued tasks, one physical warp each under the stride schedule.
func ForEach(w *simt.WarpCtx, s Schedule, numTasks int32, body func(t *Tasks)) {
	if q := s.Outliers; q != nil && q.rerun > 0 {
		s, numTasks = Schedule{K: w.Width(), Outliers: q}, q.rerun
	}
	dynamic := s.Counter != nil
	if dynamic && s.Chunk < 1 {
		panic(fmt.Sprintf("vwarp: chunk size %d must be >= 1", s.Chunk))
	}
	t := newTasks(w, s.K)
	t.outliers = s.Outliers
	valid := func(lane int) bool { return t.Valid(t.Group(lane)) }
	run := func() {
		if q := t.outliers; q != nil && q.rerun > 0 {
			// Task holds queue slots; replace them with the queued ids.
			t.LoadI32Grouped(q.Items, t.Task, t.Task)
		}
		body(t)
	}
	groups := int32(t.Groups)
	totalVW := int32(w.GridThreads()/w.Width()) * groups
	// Round r hands group g task first + g*gap + r*step while that is below
	// limit, for at most rounds rounds.
	first, gap, step, rounds, limit := int32(w.GlobalWarpID())*groups, int32(1), totalVW, int32(math.MaxInt32), numTasks
	switch {
	case dynamic:
		for i := range t.fcChunkV {
			t.fcChunkV[i] = s.Chunk
		}
		step = groups
	case s.Blocked:
		if totalVW == 0 {
			return
		}
		rounds = (numTasks + totalVW - 1) / totalVW
		first, gap, step = first*rounds, rounds, 1
	}
	for {
		if dynamic {
			w.If(func(lane int) bool { return lane == 0 }, func() {
				w.AtomicAddI32(s.Counter, t.zeroV, t.fcChunkV, t.fcOld)
			}, nil)
			first = w.BroadcastI32(t.fcOld, 0)
			if first >= numTasks {
				return
			}
			limit = min(first+s.Chunk, numTasks)
		}
		for r := int32(0); r < rounds; r++ {
			any := false
			for g := int32(0); g < groups; g++ {
				if id := first + r*step + g*gap; id < limit {
					t.Task[g], any = id, true
				} else {
					t.Task[g] = -1
				}
			}
			if !any {
				break // task ids only grow with r
			}
			if t.outliers != nil {
				copy(t.dealt, t.Task)
			}
			w.IfGrouped(t.K, valid, run, nil)
		}
		if !dynamic {
			return
		}
	}
}
