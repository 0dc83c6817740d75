package simt

import (
	"fmt"
	"math/bits"
)

// debugDisableFastPath forces every warp primitive down its masked slow
// path even when all lanes are active. It exists for the fast-path
// equivalence tests, which assert bit-identical stats, results, and
// sanitizer diagnostics across both paths; it must never be set outside
// tests.
var debugDisableFastPath bool

// WarpCtx is the per-warp execution context a Kernel runs against. Per-lane
// values are Go slices of length Width(); control flow goes through If and
// While so the active-lane mask (and thus divergence and utilization
// accounting) always mirrors what SIMT hardware would do.
//
// Methods on WarpCtx must only be called from inside the kernel function
// that received it, and only on the goroutine executing that kernel.
//
// The context is allocation-free in steady state: lane state lives in
// structure-of-arrays slabs owned by the warp, If/While mask save/restore
// recycles through a per-warp free list, and the register helpers (VecI32,
// ConstI32, ...) hand out slots of a per-warp register file that is reclaimed
// wholesale when the context is recycled for the next launch (see the device
// warp pool in sched.go).
type WarpCtx struct {
	l *launch
	w *warpRT

	width int
	mask  []bool
	// activeN is the number of true lanes in mask, maintained incrementally
	// by the mask-mutating primitives so the full-mask fast path is O(1)
	// instead of an O(width) scan per instruction.
	activeN int

	lanes []int32
	gtids []int32

	// entryMask is the kernel-entry active mask (the tail-warp mask); the
	// sanitizer's synccheck compares the live mask against it at barriers.
	// barriers counts SyncThreads passed — the shared-memory barrier epoch.
	entryMask []bool
	barriers  int

	// laneSlab backs lanes+gtids and boolSlab backs mask+entryMask: one
	// allocation each instead of four (SoA slabs owned by the warp).
	laneSlab []int32
	boolSlab []bool

	// maskFree recycles width-sized mask save/restore buffers for If/While.
	// Get/put is LIFO, matching the nesting structure of structured control
	// flow, so the list grows to the maximum nesting depth and then never
	// allocates again.
	maskFree [][]bool

	// Register files: vectors handed out by VecI32/VecF32 (and the
	// Const/Copy variants). regI32Next etc. index the next reusable slot;
	// recycling resets the cursors so the same backing arrays serve the next
	// kernel invocation. Capped so a kernel that allocates registers inside
	// an unbounded loop degrades to plain allocation instead of growing the
	// file without limit.
	regI32     [][]int32
	regI32Next int
	regF32     [][]float32
	regF32Next int

	// addrScratch is reused across ops to keep the simulator allocation-free
	// in steady state.
	addrScratch []uint64

	// scratch is the KernelScratch registry: per-context values kernel
	// libraries cache across invocations (it survives reset, riding the
	// warp pool). A handful of entries with static string keys, so a linear
	// scan beats a map.
	scratch []scratchEntry

	// sanitizer event scratch, reused per access (see Sanitizer).
	ga GlobalAccess
	sa SharedAccess
}

// regFileCap bounds each per-warp register file. 64 width-sized vectors is
// far beyond what any well-formed kernel requests outside a loop; past the
// cap VecI32 falls back to plain make so memory stays bounded.
const regFileCap = 64

func newWarpCtx(width int) *WarpCtx {
	c := &WarpCtx{
		width:       width,
		laneSlab:    make([]int32, 2*width),
		boolSlab:    make([]bool, 2*width),
		addrScratch: make([]uint64, 0, width),
	}
	c.lanes = c.laneSlab[:width:width]
	c.gtids = c.laneSlab[width:]
	c.mask = c.boolSlab[:width:width]
	c.entryMask = c.boolSlab[width:]
	return c
}

// reset rebinds a (fresh or recycled) context to a warp of the given launch,
// reinitializing the lane-identity vectors and the entry mask, and reclaiming
// the whole register file: every vector handed out during the previous
// kernel invocation is dead once that kernel returned.
func (c *WarpCtx) reset(l *launch, w *warpRT) {
	c.l = l
	c.w = w
	c.barriers = 0
	c.regI32Next = 0
	c.regF32Next = 0
	width := c.width
	warpBase := w.warpInBlock * width
	n := 0
	for lane := 0; lane < width; lane++ {
		c.lanes[lane] = int32(lane)
		tidInBlock := warpBase + lane
		c.gtids[lane] = int32(w.blockID*l.lc.ThreadsPerBlock + tidInBlock)
		live := tidInBlock < l.lc.ThreadsPerBlock
		c.mask[lane] = live
		c.entryMask[lane] = live
		if live {
			n++
		}
	}
	c.activeN = n
}

// fullMask reports whether every lane is active — the common non-divergent
// case whose per-lane mask tests the fast paths skip.
func (c *WarpCtx) fullMask() bool {
	return c.activeN == c.width && !debugDisableFastPath
}

// getMask pops a width-sized scratch mask (contents undefined).
func (c *WarpCtx) getMask() []bool {
	if n := len(c.maskFree); n > 0 {
		m := c.maskFree[n-1]
		c.maskFree = c.maskFree[:n-1]
		return m
	}
	return make([]bool, c.width)
}

func (c *WarpCtx) putMask(m []bool) { c.maskFree = append(c.maskFree, m) }

type scratchEntry struct {
	key string
	val any
}

// KernelScratch returns the value cached under key, or nil. The cache
// persists for the lifetime of the (pooled) warp context — across kernel
// invocations and launches — so kernel libraries can keep per-warp scratch
// state (closures, work vectors) allocation-free in steady state. Keys
// should be package-qualified ("vwarp.tasks"). Cached values must not hold
// register-file vectors (VecI32 etc.): those are reclaimed and re-issued
// every invocation. Anything cached must be re-validated against the
// current invocation's parameters by the caller.
func (c *WarpCtx) KernelScratch(key string) any {
	for i := range c.scratch {
		if c.scratch[i].key == key {
			return c.scratch[i].val
		}
	}
	return nil
}

// SetKernelScratch stores v under key in the per-context cache, replacing
// any previous value. See KernelScratch.
func (c *WarpCtx) SetKernelScratch(key string, v any) {
	for i := range c.scratch {
		if c.scratch[i].key == key {
			c.scratch[i].val = v
			return
		}
	}
	c.scratch = append(c.scratch, scratchEntry{key, v})
}

// --- sanitizer hooks -------------------------------------------------------

// sanGlobal reports a global-buffer access to the attached sanitizer.
// Exactly one of bi/bf is non-nil; vi/vf carry stored values for stores.
func (c *WarpCtx) sanGlobal(kind AccessKind, bi *BufI32, bf *BufF32, idx []int32, vi []int32, vf []float32) {
	san := c.l.san
	if san == nil {
		return
	}
	c.ga = GlobalAccess{
		Kind: kind, I32: bi, F32: bf,
		Block: c.w.blockID, Warp: c.w.globalID, SM: c.w.sm.id,
		Mask: c.mask, Idx: idx, ValI32: vi, ValF32: vf,
	}
	san.GlobalAccess(&c.ga)
}

// sanShared reports a block-shared access to the attached sanitizer.
func (c *WarpCtx) sanShared(kind AccessKind, s *SharedI32, idx []int32, val []int32) {
	san := c.l.san
	if san == nil {
		return
	}
	c.sa = SharedAccess{
		Kind: kind, Key: s.key, Len: s.len(),
		Block: c.w.blockID, Warp: c.w.globalID, Epoch: c.barriers,
		Mask: c.mask, Idx: idx, Val: val,
	}
	san.SharedAccess(&c.sa)
}

// charge reports an instruction whose Go code has run. The warp queues the
// request and runs ahead while the request is marked ahead (ALU-class, or a
// load from a frozen buffer) and the queue has room; anything else yields
// to the scheduler, which applies the queue in one-step order and returns
// once this warp is picked with its queue empty (see the protocol comment
// in sched.go).
func (c *WarpCtx) charge(r request) {
	w := c.w
	w.push(r)
	if r.ahead && w.qLen < c.l.depth {
		return
	}
	c.l.yield(w)
}

// chargeALU charges instrs ALU instructions over active lanes, useful of
// them doing useful work.
func (c *WarpCtx) chargeALU(instrs, active, useful int64) {
	c.charge(request{class: opALU, ahead: true, issue: instrs, active: int32(active), useful: int32(useful)})
}

// --- identity / geometry -------------------------------------------------

// Width returns the warp width (number of SIMD lanes).
func (c *WarpCtx) Width() int { return c.width }

// LaneIDs returns the per-lane lane index vector [0,1,...]. Shared storage:
// treat as read-only.
func (c *WarpCtx) LaneIDs() []int32 { return c.lanes }

// GlobalThreadIDs returns each lane's global thread id
// (blockID*blockDim + threadInBlock). Shared storage: treat as read-only.
func (c *WarpCtx) GlobalThreadIDs() []int32 { return c.gtids }

// BlockID returns the block index of this warp's block.
func (c *WarpCtx) BlockID() int { return c.w.blockID }

// WarpInBlock returns this warp's index within its block.
func (c *WarpCtx) WarpInBlock() int { return c.w.warpInBlock }

// SMID returns the id of the SM this warp is resident on. The block→SM
// assignment is deterministic (identical across ParallelSMs settings), so
// per-SM sharded host-side accounting keyed on it is deterministic too.
func (c *WarpCtx) SMID() int { return c.w.sm.id }

// GlobalWarpID returns this warp's grid-wide index.
func (c *WarpCtx) GlobalWarpID() int { return c.w.globalID }

// BlockDim returns threads per block for this launch.
func (c *WarpCtx) BlockDim() int { return c.l.lc.ThreadsPerBlock }

// GridThreads returns the total thread count of the launch.
func (c *WarpCtx) GridThreads() int { return c.l.lc.Blocks * c.l.lc.ThreadsPerBlock }

// LaneActive reports whether a specific lane is active.
func (c *WarpCtx) LaneActive(lane int) bool { return c.mask[lane] }

// --- register helpers (free: registers don't issue instructions) ---------

// VecI32 returns an uninitialized per-lane register vector (contents
// undefined, exactly like a fresh hardware register).
func (c *WarpCtx) VecI32() []int32 {
	if c.regI32Next < len(c.regI32) {
		v := c.regI32[c.regI32Next]
		c.regI32Next++
		return v
	}
	v := make([]int32, c.width)
	if len(c.regI32) < regFileCap {
		c.regI32 = append(c.regI32, v)
		c.regI32Next++
	}
	return v
}

// VecF32 returns an uninitialized per-lane float register vector.
func (c *WarpCtx) VecF32() []float32 {
	if c.regF32Next < len(c.regF32) {
		v := c.regF32[c.regF32Next]
		c.regF32Next++
		return v
	}
	v := make([]float32, c.width)
	if len(c.regF32) < regFileCap {
		c.regF32 = append(c.regF32, v)
		c.regF32Next++
	}
	return v
}

// ConstI32 returns a register vector with every lane set to v.
func (c *WarpCtx) ConstI32(v int32) []int32 {
	r := c.VecI32()
	for i := range r {
		r[i] = v
	}
	return r
}

// CopyI32 returns a register vector copying src.
func (c *WarpCtx) CopyI32(src []int32) []int32 {
	r := c.VecI32()
	copy(r, src)
	return r
}

// --- compute --------------------------------------------------------------

// Apply executes f once per active lane and charges `instrs` ALU warp
// instructions (at least 1). Use it for all per-lane arithmetic; the
// simulator cannot see inside f, so pick instrs to match the work (one
// simple arithmetic statement ≈ one instruction).
func (c *WarpCtx) Apply(instrs int, f func(lane int)) {
	if instrs < 1 {
		instrs = 1
	}
	active := int64(c.activeN)
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			f(lane)
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				f(lane)
			}
		}
	}
	c.chargeALU(int64(instrs), active, active)
}

// ApplyReplicated executes f once per virtual-warp group of groupWidth lanes
// that has at least one active lane, charging `instrs` warp instructions.
// This models the paper's replicated (SISD) phase: the hardware keeps every
// lane busy executing identical instructions, so ActiveLaneOps counts all
// active lanes but UsefulLaneOps counts only one per group.
func (c *WarpCtx) ApplyReplicated(instrs, groupWidth int, f func(group int)) {
	if instrs < 1 {
		instrs = 1
	}
	c.checkGroupWidth(groupWidth)
	groups := c.width / groupWidth
	activeGroups := int64(0)
	if c.fullMask() {
		activeGroups = int64(groups)
		for g := 0; g < groups; g++ {
			f(g)
		}
	} else {
		for g := 0; g < groups; g++ {
			if c.groupActive(g, groupWidth) {
				activeGroups++
				f(g)
			}
		}
	}
	c.chargeALU(int64(instrs), int64(c.activeN), activeGroups)
}

func (c *WarpCtx) checkGroupWidth(groupWidth int) {
	if groupWidth < 1 || groupWidth > c.width || c.width%groupWidth != 0 {
		panic(fmt.Sprintf("simt: group width %d invalid for warp width %d", groupWidth, c.width))
	}
}

func (c *WarpCtx) groupActive(g, groupWidth int) bool {
	if c.activeN == c.width {
		return true
	}
	base := g * groupWidth
	for lane := base; lane < base+groupWidth; lane++ {
		if c.mask[lane] {
			return true
		}
	}
	return false
}

// activeGroupCount counts virtual-warp groups with at least one active lane.
func (c *WarpCtx) activeGroupCount(groupWidth int) int64 {
	if c.activeN == c.width {
		return int64(c.width / groupWidth)
	}
	n := int64(0)
	for g := 0; g < c.width/groupWidth; g++ {
		if c.groupActive(g, groupWidth) {
			n++
		}
	}
	return n
}

// --- control flow ----------------------------------------------------------

// If evaluates pred on the active lanes (one instruction), then runs thenFn
// with the true lanes active and elseFn (if non-nil) with the false lanes
// active, restoring the original mask afterwards. If both paths have active
// lanes the branch is divergent and both paths execute serially — exactly
// the SIMT penalty.
func (c *WarpCtx) If(pred func(lane int) bool, thenFn, elseFn func()) {
	c.ifImpl(0, pred, thenFn, elseFn)
}

// IfGrouped is If for predicates that are uniform within each virtual-warp
// group of groupWidth lanes (replicated SISD-phase conditions): timing is
// identical to If, but only one lane per active group counts as useful.
func (c *WarpCtx) IfGrouped(groupWidth int, pred func(lane int) bool, thenFn, elseFn func()) {
	c.checkGroupWidth(groupWidth)
	c.ifImpl(groupWidth, pred, thenFn, elseFn)
}

func (c *WarpCtx) ifImpl(groupWidth int, pred func(lane int) bool, thenFn, elseFn func()) {
	saved := c.getMask()
	copy(saved, c.mask)
	savedN := c.activeN
	thenMask := c.getMask()
	thenN := 0
	elseAny := false
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			if pred(lane) {
				thenMask[lane] = true
				thenN++
			} else {
				thenMask[lane] = false
				elseAny = true
			}
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			thenMask[lane] = false
			if !saved[lane] {
				continue
			}
			if pred(lane) {
				thenMask[lane] = true
				thenN++
			} else {
				elseAny = true
			}
		}
	}
	thenAny := thenN > 0
	active := int64(savedN)
	useful := active
	if groupWidth > 0 {
		useful = c.activeGroupCount(groupWidth)
	}
	c.charge(request{class: opALU, ahead: true, issue: 1, active: int32(active), useful: int32(useful),
		divergent: thenAny && elseAny && elseFn != nil})
	if thenAny && thenFn != nil {
		copy(c.mask, thenMask)
		c.activeN = thenN
		thenFn()
	}
	if elseAny && elseFn != nil {
		elseN := 0
		for lane := 0; lane < c.width; lane++ {
			on := saved[lane] && !thenMask[lane]
			c.mask[lane] = on
			if on {
				elseN++
			}
		}
		c.activeN = elseN
		elseFn()
	}
	copy(c.mask, saved)
	c.activeN = savedN
	c.putMask(thenMask)
	c.putMask(saved)
}

// While loops body while cond holds for at least one active lane; lanes
// whose condition turns false fall inactive for the remaining iterations
// (they re-activate at loop exit). Per-lane trip-count differences therefore
// cost real cycles with idle lanes — the workload-imbalance mechanism at the
// core of the paper.
func (c *WarpCtx) While(cond func(lane int) bool, body func()) {
	saved := c.getMask()
	copy(saved, c.mask)
	savedN := c.activeN
	for {
		any := false
		if c.fullMask() {
			n := c.width
			for lane := 0; lane < c.width; lane++ {
				if !cond(lane) {
					c.mask[lane] = false
					n--
				}
			}
			c.activeN = n
			any = n > 0
		} else {
			for lane := 0; lane < c.width; lane++ {
				if c.mask[lane] {
					if cond(lane) {
						any = true
					} else {
						c.mask[lane] = false
						c.activeN--
					}
				}
			}
		}
		active := int64(c.activeN)
		if active == 0 {
			active = int64(savedN) // the cond evaluation still issues
		}
		c.chargeALU(1, active, active)
		if !any {
			break
		}
		body()
	}
	copy(c.mask, saved)
	c.activeN = savedN
	c.putMask(saved)
}

// --- warp-level intrinsics --------------------------------------------------

// Ballot returns a bitmask of the active lanes where pred holds (one
// instruction), like CUDA's __ballot.
func (c *WarpCtx) Ballot(pred func(lane int) bool) uint64 {
	var out uint64
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			if pred(lane) {
				out |= 1 << uint(lane)
			}
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] && pred(lane) {
				out |= 1 << uint(lane)
			}
		}
	}
	c.chargeALU1()
	return out
}

// BroadcastI32 returns src[fromLane] to all lanes (one shuffle
// instruction), like CUDA's __shfl.
func (c *WarpCtx) BroadcastI32(src []int32, fromLane int) int32 {
	if fromLane < 0 || fromLane >= c.width {
		panic(fmt.Sprintf("simt: broadcast from lane %d outside warp of width %d", fromLane, c.width))
	}
	c.chargeALU1()
	return src[fromLane]
}

// GroupReduceAddI32 tree-reduces src within each virtual-warp group of
// groupWidth lanes (inactive lanes contribute 0) and writes the group sum to
// every lane of the group in dst. Charged log2(groupWidth) instructions,
// like a shuffle-based warp reduction.
func (c *WarpCtx) GroupReduceAddI32(groupWidth int, src, dst []int32) {
	full := c.fullMask()
	c.groupReduce(groupWidth, func(g, base int) {
		var sum int32
		if full {
			for lane := base; lane < base+groupWidth; lane++ {
				sum += src[lane]
			}
		} else {
			for lane := base; lane < base+groupWidth; lane++ {
				if c.mask[lane] {
					sum += src[lane]
				}
			}
		}
		for lane := base; lane < base+groupWidth; lane++ {
			dst[lane] = sum
		}
	})
}

// GroupReduceOrI32 is the bitwise-OR reduction (identity 0), useful for
// building per-group bitmasks (e.g. used-color windows in graph coloring).
func (c *WarpCtx) GroupReduceOrI32(groupWidth int, src, dst []int32) {
	full := c.fullMask()
	c.groupReduce(groupWidth, func(g, base int) {
		var acc int32
		if full {
			for lane := base; lane < base+groupWidth; lane++ {
				acc |= src[lane]
			}
		} else {
			for lane := base; lane < base+groupWidth; lane++ {
				if c.mask[lane] {
					acc |= src[lane]
				}
			}
		}
		for lane := base; lane < base+groupWidth; lane++ {
			dst[lane] = acc
		}
	})
}

// GroupReduceAddF32 is the float32 sum reduction.
func (c *WarpCtx) GroupReduceAddF32(groupWidth int, src, dst []float32) {
	full := c.fullMask()
	c.groupReduce(groupWidth, func(g, base int) {
		var sum float32
		if full {
			for lane := base; lane < base+groupWidth; lane++ {
				sum += src[lane]
			}
		} else {
			for lane := base; lane < base+groupWidth; lane++ {
				if c.mask[lane] {
					sum += src[lane]
				}
			}
		}
		for lane := base; lane < base+groupWidth; lane++ {
			dst[lane] = sum
		}
	})
}

func (c *WarpCtx) groupReduce(groupWidth int, apply func(g, base int)) {
	c.checkGroupWidth(groupWidth)
	groups := c.width / groupWidth
	for g := 0; g < groups; g++ {
		apply(g, g*groupWidth)
	}
	steps := int64(bits.Len(uint(groupWidth)) - 1)
	if steps < 1 {
		steps = 1
	}
	c.chargeALU(steps, int64(c.activeN), int64(c.activeN))
}

// --- global memory -----------------------------------------------------------

// gatherAddrsBuf gathers the byte addresses of element idx[lane] of a
// 4-byte-element device buffer at base for every active lane, in ascending
// lane order, with the bounds check in the same pass: the lowest faulting
// active lane panics with a typed out-of-bounds *KernelFault.
func (c *WarpCtx) gatherAddrsBuf(base uint64, n int, name string, idx []int32) (addrs []uint64, active int64) {
	a := c.addrScratch[:0]
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			i := idx[lane]
			if i < 0 || int(i) >= n {
				f := newFaultOOB(name, int64(i), n)
				f.Lane = lane
				panic(f)
			}
			a = append(a, base+4*uint64(i))
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				i := idx[lane]
				if i < 0 || int(i) >= n {
					f := newFaultOOB(name, int64(i), n)
					f.Lane = lane
					panic(f)
				}
				a = append(a, base+4*uint64(i))
			}
		}
	}
	c.addrScratch = a
	return a, int64(len(a))
}

// chargeMem charges a global-memory instruction of class opLoad, opStore or
// opAtomic over addrs, with serial same-address atomic serialization steps;
// ahead marks a load from a frozen buffer. It coalesces the addresses into
// the warp's segment log; apply does the cache and DRAM accounting when the
// scheduler reaches the request.
func (c *WarpCtx) chargeMem(class opClass, addrs []uint64, active, useful, serial int64, ahead bool) {
	if active == 0 {
		return
	}
	w := c.w
	c.reserveSegs(len(addrs))
	off := len(w.segs)
	n := len(coalesceSegments(addrs, uint64(c.l.cfg.SegmentBytes), w.segs[off:off]))
	w.segs = w.segs[:off+n]
	c.charge(request{class: class, ahead: ahead, active: int32(active), useful: int32(useful), extra: serial,
		segOff: uint32(off), segN: uint8(n)})
}

// reserveSegs makes room for n segments in the warp's segment log, which
// holds the coalesced segments of its queued memory requests. The log
// restarts when the queue is empty and compacts when it is full; while the
// queued requests' segments still leave too little room, the warp yields,
// like a full queue, until enough of them have applied.
func (c *WarpCtx) reserveSegs(n int) {
	w := c.w
	for {
		if w.qLen == 0 {
			w.segs = w.segs[:0]
			return
		}
		if cap(w.segs)-len(w.segs) >= n {
			return
		}
		w.compactSegs()
		if cap(w.segs)-len(w.segs) >= n {
			return
		}
		c.l.yield(w)
	}
}

// checkWritable panics with a typed read-only *KernelFault, naming the
// lowest active lane, when a store or atomic targets a frozen buffer. Like
// an out-of-bounds access it fires before the instruction is charged; an
// instruction with no active lane writes nothing and does not fault.
func (c *WarpCtx) checkWritable(frozen bool, name, op string, idx []int32) {
	if !frozen {
		return
	}
	for lane := 0; lane < c.width; lane++ {
		if c.mask[lane] {
			f := newFaultReadOnly(name, int64(idx[lane]), op)
			f.Lane = lane
			panic(f)
		}
	}
}

// readI32 is the plain-load data phase: the launch-entry value overridden
// by this SM's own stores (and its own atomics, which mirror into the SM
// shadow). Other SMs' same-launch writes are never visible — see the
// memory-model comment in mem.go.
func (c *WarpCtx) readI32(b *BufI32, i int32) int32 {
	if sh := b.sh[c.w.sm.id]; sh != nil {
		return sh.load(i)
	}
	return b.data[i]
}

func (c *WarpCtx) readF32(b *BufF32, i int32) float32 {
	if sh := b.sh[c.w.sm.id]; sh != nil {
		return sh.load(i)
	}
	return b.data[i]
}

// LoadI32 gathers b[idx[lane]] into dst[lane] for every active lane. The
// instruction's cost is one coalesced transaction per distinct 128-byte
// segment touched.
func (c *WarpCtx) LoadI32(b *BufI32, idx []int32, dst []int32) {
	c.sanGlobal(AccessLoad, b, nil, idx, nil, nil)
	addrs, active := c.gatherAddrsBuf(b.base, len(b.data), b.name, idx)
	c.chargeMem(opLoad, addrs, active, active, 0, b.frozen)
	c.loadI32Data(b, idx, dst)
}

// loadI32Data performs the data phase of an int32 gather, with the shadow
// lookup hoisted out of the per-lane loop and the full-mask shadow walk
// batched through loadAll.
func (c *WarpCtx) loadI32Data(b *BufI32, idx []int32, dst []int32) {
	sh := b.sh[c.w.sm.id]
	switch {
	case sh == nil && c.fullMask():
		data := b.data
		for lane := 0; lane < c.width; lane++ {
			dst[lane] = data[idx[lane]]
		}
	case sh == nil:
		data := b.data
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = data[idx[lane]]
			}
		}
	case c.fullMask():
		sh.loadAll(idx[:c.width], dst[:c.width])
	default:
		sh.loadMasked(idx[:c.width], dst[:c.width], c.mask)
	}
}

// LoadI32Replicated is LoadI32 for addresses replicated within each
// virtual-warp group of groupWidth lanes (the SISD-phase load pattern):
// identical timing and coalescing, but only one lane per active group counts
// as useful.
func (c *WarpCtx) LoadI32Replicated(groupWidth int, b *BufI32, idx []int32, dst []int32) {
	c.checkGroupWidth(groupWidth)
	c.sanGlobal(AccessLoad, b, nil, idx, nil, nil)
	addrs, active := c.gatherAddrsBuf(b.base, len(b.data), b.name, idx)
	useful := c.activeGroupCount(groupWidth)
	c.chargeMem(opLoad, addrs, active, useful, 0, b.frozen)
	c.loadI32Data(b, idx, dst)
}

// StoreI32 scatters src[lane] to b[idx[lane]] for every active lane.
// Same-address collisions behave like CUDA: one of the writing lanes wins
// (here deterministically the highest lane).
func (c *WarpCtx) StoreI32(b *BufI32, idx []int32, src []int32) {
	c.sanGlobal(AccessStore, b, nil, idx, src, nil)
	c.checkWritable(b.frozen, b.name, "store", idx)
	addrs, active := c.gatherAddrsBuf(b.base, len(b.data), b.name, idx)
	c.chargeMem(opStore, addrs, active, active, 0, false)
	sh := b.shadowFor(c.w.sm.id)
	if c.fullMask() {
		sh.storeAll(idx[:c.width], src[:c.width])
	} else {
		sh.storeMasked(idx[:c.width], src[:c.width], c.mask)
	}
}

// LoadF32 gathers float32 values; see LoadI32.
func (c *WarpCtx) LoadF32(b *BufF32, idx []int32, dst []float32) {
	c.sanGlobal(AccessLoad, nil, b, idx, nil, nil)
	addrs, active := c.gatherAddrsBuf(b.base, len(b.data), b.name, idx)
	c.chargeMem(opLoad, addrs, active, active, 0, b.frozen)
	sh := b.sh[c.w.sm.id]
	switch {
	case sh == nil && c.fullMask():
		data := b.data
		for lane := 0; lane < c.width; lane++ {
			dst[lane] = data[idx[lane]]
		}
	case sh == nil:
		data := b.data
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = data[idx[lane]]
			}
		}
	case c.fullMask():
		sh.loadAll(idx[:c.width], dst[:c.width])
	default:
		sh.loadMasked(idx[:c.width], dst[:c.width], c.mask)
	}
}

// StoreF32 scatters float32 values; see StoreI32.
func (c *WarpCtx) StoreF32(b *BufF32, idx []int32, src []float32) {
	c.sanGlobal(AccessStore, nil, b, idx, nil, src)
	c.checkWritable(b.frozen, b.name, "store", idx)
	addrs, active := c.gatherAddrsBuf(b.base, len(b.data), b.name, idx)
	c.chargeMem(opStore, addrs, active, active, 0, false)
	sh := b.shadowFor(c.w.sm.id)
	if c.fullMask() {
		sh.storeAll(idx[:c.width], src[:c.width])
	} else {
		sh.storeMasked(idx[:c.width], src[:c.width], c.mask)
	}
}

// --- atomics -------------------------------------------------------------------

// atomLoadI32 reads the current value of an atomic target: the globally
// ordered overlay if any atomic has written the cell this launch, else this
// SM's own plain-store view. The atomic gate must be held.
func (c *WarpCtx) atomLoadI32(b *BufI32, i int32) int32 {
	if b.ov != nil && b.ov.written(i) {
		return b.ov.load(i)
	}
	return c.readI32(b, i)
}

// atomStoreI32 publishes an atomic result: into the overlay (the globally
// ordered value every later atomic reads) and mirrored into this SM's own
// shadow so the SM's later plain loads observe its atomics, exactly as the
// sequential machine would. The atomic gate must be held.
func (c *WarpCtx) atomStoreI32(b *BufI32, i int32, v int32) {
	b.overlay().store(i, v)
	b.shadowFor(c.w.sm.id).store(i, v)
}

func (c *WarpCtx) atomLoadF32(b *BufF32, i int32) float32 {
	if b.ov != nil && b.ov.written(i) {
		return b.ov.load(i)
	}
	return c.readF32(b, i)
}

func (c *WarpCtx) atomStoreF32(b *BufF32, i int32, v float32) {
	b.overlay().store(i, v)
	b.shadowFor(c.w.sm.id).store(i, v)
}

func (c *WarpCtx) atomicI32(b *BufI32, idx []int32, apply func(lane int)) {
	c.sanGlobal(AccessAtomic, b, nil, idx, nil, nil)
	c.checkWritable(b.frozen, b.name, "atomic", idx)
	c.atomic(b.base, len(b.data), b.name, idx, apply)
}

// atomic charges a global atomic on a buffer of n elements at base, then
// runs apply on every active lane, in lane order, under the atomic gate.
func (c *WarpCtx) atomic(base uint64, n int, name string, idx []int32, apply func(lane int)) {
	addrs, active := c.gatherAddrsBuf(base, n, name, idx)
	if active == 0 {
		return
	}
	c.chargeMem(opAtomic, addrs, active, active, int64(conflictGroups(addrs)-1), false)
	if !c.l.gateEnter(c.w.sm) {
		panic(errAborted) // aborted while waiting; runWarp unwinds the warp
	}
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			apply(lane)
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				apply(lane)
			}
		}
	}
	c.l.gateExit(c.w.sm)
}

// AtomicAddI32 performs old[lane] = b[idx[lane]]; b[idx[lane]] += delta[lane]
// atomically per lane, in lane order. Same-address lanes serialize (charged
// AtomicExtraLatency per extra lane on the hottest address). old may be nil.
func (c *WarpCtx) AtomicAddI32(b *BufI32, idx []int32, delta []int32, old []int32) {
	c.atomicI32(b, idx, func(lane int) {
		i := idx[lane]
		cur := c.atomLoadI32(b, i)
		if old != nil {
			old[lane] = cur
		}
		c.atomStoreI32(b, i, cur+delta[lane])
	})
}

// AtomicMinI32 performs old = b[idx]; b[idx] = min(b[idx], val) per lane.
func (c *WarpCtx) AtomicMinI32(b *BufI32, idx []int32, val []int32, old []int32) {
	c.atomicI32(b, idx, func(lane int) {
		i := idx[lane]
		cur := c.atomLoadI32(b, i)
		if old != nil {
			old[lane] = cur
		}
		if val[lane] < cur {
			c.atomStoreI32(b, i, val[lane])
		}
	})
}

// AtomicCASI32 compare-and-swaps per lane: if b[idx]==cmp then b[idx]=val;
// old receives the observed value.
func (c *WarpCtx) AtomicCASI32(b *BufI32, idx []int32, cmp, val []int32, old []int32) {
	c.atomicI32(b, idx, func(lane int) {
		i := idx[lane]
		cur := c.atomLoadI32(b, i)
		if old != nil {
			old[lane] = cur
		}
		if cur == cmp[lane] {
			c.atomStoreI32(b, i, val[lane])
		}
	})
}

// AtomicOrI32 performs old = b[idx]; b[idx] |= val per lane — the bitmask
// primitive multi-source BFS and visited-set kernels build on.
func (c *WarpCtx) AtomicOrI32(b *BufI32, idx []int32, val []int32, old []int32) {
	c.atomicI32(b, idx, func(lane int) {
		i := idx[lane]
		cur := c.atomLoadI32(b, i)
		if old != nil {
			old[lane] = cur
		}
		c.atomStoreI32(b, i, cur|val[lane])
	})
}

// AtomicAddF32 is the float32 atomic add.
func (c *WarpCtx) AtomicAddF32(b *BufF32, idx []int32, delta []float32, old []float32) {
	c.sanGlobal(AccessAtomic, nil, b, idx, nil, nil)
	c.checkWritable(b.frozen, b.name, "atomic", idx)
	c.atomic(b.base, len(b.data), b.name, idx, func(lane int) {
		i := idx[lane]
		cur := c.atomLoadF32(b, i)
		if old != nil {
			old[lane] = cur
		}
		c.atomStoreF32(b, i, cur+delta[lane])
	})
}

// --- shared memory & barriers ------------------------------------------------

// SharedI32 returns the block-shared int32 array registered under key,
// allocating it (zeroed) on first use by any warp of the block. Allocation
// is free, mirroring CUDA's static shared declarations.
func (c *WarpCtx) SharedI32(key string, n int) *SharedI32 {
	return c.w.block.shared.getI32(key, n)
}

// LoadSharedI32 gathers from block-shared memory with bank-conflict cost.
func (c *WarpCtx) LoadSharedI32(s *SharedI32, idx []int32, dst []int32) {
	c.sanShared(AccessLoad, s, idx, nil)
	slots, minSlots, active := c.sharedConflicts(s, idx)
	if active == 0 {
		return
	}
	c.chargeShared(slots, minSlots, active)
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			dst[lane] = s.data[idx[lane]]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				dst[lane] = s.data[idx[lane]]
			}
		}
	}
}

// StoreSharedI32 scatters to block-shared memory with bank-conflict cost.
// Same-address collisions: highest lane wins, deterministically.
func (c *WarpCtx) StoreSharedI32(s *SharedI32, idx []int32, src []int32) {
	c.sanShared(AccessStore, s, idx, src)
	slots, minSlots, active := c.sharedConflicts(s, idx)
	if active == 0 {
		return
	}
	c.chargeShared(slots, minSlots, active)
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			s.data[idx[lane]] = src[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				s.data[idx[lane]] = src[lane]
			}
		}
	}
}

// sharedConflicts computes shared-memory issue slots. Hardware services
// shared accesses SharedBanks lanes at a time (a half-warp on GT200-class
// parts); within each service group, distinct words mapping to the same bank
// serialize, while same-word accesses broadcast for free. The returned slot
// count is the sum over groups of each group's worst bank degree.
func (c *WarpCtx) sharedConflicts(s *SharedI32, idx []int32) (slots, minSlots, active int64) {
	banks := c.l.cfg.SharedBanks
	n := s.len()
	full := c.fullMask()
	// Distinct-word and bank bookkeeping in fixed stack arrays: a service
	// group has at most min(banks, width) <= 64 lanes (warp width is capped
	// at 64 by the Ballot bitmask), so the quadratic scans are tiny and the
	// whole computation is allocation-free.
	var words [64]int32
	var wordBank [64]int
	for base := 0; base < c.width; base += banks {
		groupActive := false
		nw := 0
		end := base + banks
		if end > c.width {
			end = c.width
		}
		for lane := base; lane < end; lane++ {
			if !full && !c.mask[lane] {
				continue
			}
			i := idx[lane]
			if i < 0 || int(i) >= n {
				f := newFaultOOB("shared:"+s.key, int64(i), n)
				f.Lane = lane
				panic(f)
			}
			active++
			groupActive = true
			dup := false
			for k := 0; k < nw; k++ {
				if words[k] == i {
					dup = true // same-word accesses broadcast for free
					break
				}
			}
			if !dup {
				words[nw] = i
				wordBank[nw] = int(i) % banks
				nw++
			}
		}
		if !groupActive {
			continue
		}
		minSlots++
		degree := int64(1)
		for k := 0; k < nw; k++ {
			cnt := int64(1)
			for j := k + 1; j < nw; j++ {
				if wordBank[j] == wordBank[k] {
					cnt++
				}
			}
			if cnt > degree {
				degree = cnt
			}
		}
		slots += degree
	}
	if slots == 0 {
		slots, minSlots = 1, 1
	}
	return slots, minSlots, active
}

func (c *WarpCtx) chargeShared(slots, minSlots, active int64) {
	c.charge(request{class: opShared, issue: slots, extra: slots - minSlots, active: int32(active)})
}

// AtomicAddSharedI32 atomically adds delta[lane] to s[idx[lane]] per active
// lane (in lane order), returning old values (old may be nil). Same-word
// lanes serialize like bank conflicts; this is the shared-memory atomicAdd
// histogram kernels rely on.
func (c *WarpCtx) AtomicAddSharedI32(s *SharedI32, idx []int32, delta []int32, old []int32) {
	c.sanShared(AccessAtomic, s, idx, delta)
	slots, minSlots, active := c.sharedConflicts(s, idx)
	if active == 0 {
		return
	}
	// Same-address serialization: charge like a conflict per extra lane on
	// the hottest word (the slots count from sharedConflicts already covers
	// distinct-word bank conflicts; same-word atomic lanes serialize too).
	// Every active lane whose index already appeared on an earlier active
	// lane is one extra serialization step — equivalent to summing (n-1)
	// over addresses hit n>1 times, without a map.
	extra := int64(0)
	for lane := 0; lane < c.width; lane++ {
		if !c.mask[lane] {
			continue
		}
		for j := 0; j < lane; j++ {
			if c.mask[j] && idx[j] == idx[lane] {
				extra++
				break
			}
		}
	}
	c.chargeShared(slots+extra, minSlots, active)
	if c.fullMask() {
		for lane := 0; lane < c.width; lane++ {
			i := idx[lane]
			if old != nil {
				old[lane] = s.data[i]
			}
			s.data[i] += delta[lane]
		}
	} else {
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] {
				i := idx[lane]
				if old != nil {
					old[lane] = s.data[i]
				}
				s.data[i] += delta[lane]
			}
		}
	}
}

// SyncThreads is the block-wide barrier (__syncthreads). All live warps of
// the block must reach it; warps that have already returned from the kernel
// are excluded from the rendezvous.
func (c *WarpCtx) SyncThreads() {
	if san := c.l.san; san != nil {
		divergent := false
		for lane := 0; lane < c.width; lane++ {
			if c.mask[lane] != c.entryMask[lane] {
				divergent = true
				break
			}
		}
		san.Barrier(c.w.blockID, c.w.globalID, divergent)
	}
	c.charge(request{class: opBarrier})
	c.barriers++
}
