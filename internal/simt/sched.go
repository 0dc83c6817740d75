package simt

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The simulation protocol: every warp runs its kernel on a dedicated
// goroutine, spawned by the warp's first handoff, so it starts out holding
// the token instead of parking until its first pick. A scheduling domain is
// the set of SMs one execution token serves, and within a domain exactly
// one goroutine holds the token and executes at any moment. The holder is
// the domain's loop before the first pick, then a warp goroutine.
//
// Each warp primitive runs its Go code, then reports the instruction as a
// request (see charge). Two kinds of request are marked ahead. An ALU-class
// request — Apply, If/While conditions, Ballot, shuffles, reductions, the
// vector primitives — touches only the warp's own registers. A load from a
// frozen buffer (BufI32.Freeze) reads memory that no store or atomic can
// reach during the launch, and bit-flips land before the launch starts, so
// its value cannot depend on when its Go code runs: its data phase runs at
// once. The warp queues an ahead request and keeps running its kernel while
// its queue has room (queueDepth). Any other request (a load from a
// mutable buffer, a store, atomic, shared access or barrier), or one that
// fills the queue, makes the warp yield: its goroutine runs the domain's
// scheduler, which repeats apply (account and time the picked warp's queue
// head), supervise, pick. A queued memory request keeps its coalesced
// segments in the warp's segment log, so its cache lookup, DRAM
// transactions and latency are still accounted in apply, in one-step order.
// While a pick lands on a warp with requests queued, the token holder
// applies the next one inline. A pick on a warp with an empty queue
// switches goroutines, because that warp's next step is Go code it has not
// run yet: its first instruction, a mutable load's data phase, a store, an
// atomic, a shared access or a barrier. A pick on the yielding warp itself
// with only ahead requests queued returns to its kernel, which runs ahead
// again (it is the current pick, and its queue head stays next). So
// requests apply, and the simulated machine moves, in exactly the order of
// one step per instruction; only Go code whose outcome cannot depend on
// other warps runs early. The token returns to the loop only when the
// domain runs dry. Sanitized launches queue nothing (the sanitizer's hooks
// run in kernel code), which is one step per instruction.
//
// With Config.ParallelSMs == 1 one domain spans every SM and its loop runs
// on the launching goroutine; each pick takes the SM with the smallest clock
// (lowest id on ties), the top of a min-heap of the domain's SMs (see
// domain.heap). The heap replaced a scan of every SM behind a cached
// runner-up, which fell through to the scan on 85–99.7% of picks. With
// ParallelSMs > 1 every SM is its own domain (a heap of one) on its own
// host goroutine and the SMs advance concurrently. Determinism is preserved
// by construction:
//
//   - Plain global-memory stores go to a per-SM write shadow and plain loads
//     read base-overridden-by-own-shadow (see mem.go), so no plain access
//     ever crosses between SMs mid-launch.
//   - Atomics and block admission — the only cross-SM effects — pass through
//     a global gate that releases them in the sequential loop's exact order:
//     lexicographic (step clock, SM id). Each SM publishes its current step
//     clock as a "horizon"; a gated op at key (k, i) waits until every other
//     SM j has horizon > k (or == k with j > i), which proves no effect
//     ordered before it can still be produced.
//   - Stats accumulate in per-SM shards and merge in ascending SM id at
//     launch end; Cycles = max over SMFinish.
//
// The result: identical memory contents and bit-identical LaunchStats for
// every ParallelSMs setting. An abort unwinds the same way in both modes: no
// block is admitted after it, queued requests are discarded uncounted, and
// each domain's token visits every remaining resident warp once, which
// unwinds and marks itself done. Failed sequential launches are therefore
// deterministic. In parallel mode, which host goroutine trips a fault or
// timeout first is timing-dependent, so the partial stats of a FAILED
// parallel launch (and which of several concurrent errors is reported) may
// vary run to run. Successful launches are fully deterministic.

type opClass uint8

const (
	opALU opClass = iota
	opLoad
	opStore
	opAtomic
	opShared
	opBarrier
	opDone
)

// request is a warp's report of an instruction whose Go code has run: what
// apply needs to account for it and time it. The segment fields sit in what
// would be padding, so a request stays 40 bytes.
type request struct {
	class opClass
	// divergent marks an If condition both of whose sides run.
	divergent bool
	// ahead marks a request the warp may keep running its kernel past while
	// it waits in the queue: an ALU-class instruction or a load from a
	// frozen buffer.
	ahead bool
	// segN and segOff locate a global-memory request's coalesced segments
	// in its warp's segment log (warpRT.segs).
	segN uint8
	// active and useful count the instruction's active and useful lanes.
	active, useful int32
	segOff         uint32
	// issue is the instruction count (ALU) or issue slots (shared).
	issue int64
	// extra is the bank-conflict slots of a shared access, or the
	// same-address serialization steps of an atomic.
	extra int64
	// err reports a kernel failure alongside opDone.
	err *KernelFault
}

// queueDepth is the length of a warp's request queue: how far a warp may
// run ahead of the scheduler through ALU-class instructions and frozen
// loads.
const queueDepth = 16

// errAborted is the sentinel panic used to unwind warp goroutines when a
// launch is cancelled; it never escapes the package.
var errAborted = errors.New("simt: launch aborted")

const neverReady = math.MaxInt64

// gateIdle marks an SM with no pending gated operation (and is the horizon
// published by an SM whose domain loop has exited).
const gateIdle = int64(math.MaxInt64)

type warpRT struct {
	globalID    int
	blockID     int
	warpInBlock int

	// smIdx is this warp's index in its SM's warps/readyKey slices, kept in
	// sync by admission and block retirement.
	smIdx int

	readyAt   int64
	busy      int64
	started   bool
	done      bool
	inBarrier bool
	arrivedAt int64
	// spawned marks that handOff has started the warp's goroutine.
	spawned bool

	// q is a ring of the qLen requests, oldest at qHead, whose Go code has
	// run but which the scheduler has not applied yet. Only the holder of
	// the domain's token touches it.
	q           [queueDepth]request
	qHead, qLen int
	// segs is the segment log: the coalesced segments of the queued memory
	// requests, in queue order, each request's at its segOff. Its capacity
	// is twice the warp width (see reserveSegs).
	segs []uint64

	// resume hands this warp its domain's execution token.
	resume chan struct{}
	ctx    *WarpCtx
	block  *blockRT
	sm     *smRT
}

type blockRT struct {
	id            int
	warps         []*warpRT
	liveWarps     int
	inBarrier     int
	barrierLatest int64
	shared        *sharedArena
}

type smRT struct {
	id            int
	clock         int64
	memPipeFree   int64
	blocks        []*blockRT
	warps         []*warpRT
	warpSlotsUsed int
	everUsed      bool
	cache         *smCache
	rrCursor      int

	// readyKey[i] is the GTO scheduling key of warps[i]: its readyAt when
	// issuable, neverReady while done or barrier-blocked. Keeping the keys in
	// a contiguous slab lets the per-instruction scheduler scan touch a few
	// cache lines instead of chasing every warpRT pointer. Every site that
	// mutates readyAt/done/inBarrier updates the key.
	readyKey []int64

	// liveWarps counts resident warps that have not reported done, so the
	// has-work check is O(1) instead of a scan over every resident warp per
	// scheduling step.
	liveWarps int

	// warpFree recycles warp runtimes (channels + lane-state slabs) retired
	// by this SM; admission reuses them before touching the device-level
	// pool. Only the goroutine holding this SM's token touches it.
	warpFree []*warpRT

	// slotHeld marks that this SM currently holds one of the launch's host
	// worker slots (parallel mode). It is accessed only by the goroutine
	// holding this SM's token, so it needs no synchronization.
	slotHeld bool

	// dom is the scheduling domain this SM belongs to.
	dom *domain

	// stepKey is the SM clock at the top of the current step — the ordering
	// key of every memory effect the step produces.
	stepKey int64
	// stats is this SM's shard of the launch counters; shards merge in
	// ascending SM id at launch end so totals are order-independent.
	stats LaunchStats
}

// domain is a scheduling domain: the SMs one execution token serves. Only
// the token holder touches it, and the channel operations that pass the
// token order those accesses, so it needs no lock.
type domain struct {
	// heap holds the domain's SMs that may still have work as a binary
	// min-heap on (clock, id), so its top is the SM a full scan for the
	// smallest clock (lowest id on ties) would pick. Only the SM just
	// stepped changes its clock between picks, and clocks only rise, so pick
	// restores the order by sifting the top down. An SM whose has-work check
	// fails on top is dropped permanently: its resident warps are all done
	// (liveWarps is monotone down to 0 between admissions), and either no
	// blocks remain (nextBlock is monotone) or it cannot admit — and an SM
	// with zero resident blocks that cannot admit never can. An SM that
	// lost its work below the top is never picked before it surfaces.
	heap []smKey
	// wake hands the token back to the domain's loop.
	wake chan struct{}
	// handoffs counts token transfers between goroutines: loop→warp,
	// warp→warp and warp→loop.
	handoffs int64
}

// smKey is a heap entry: an SM and its (clock, id) pick key, kept inline so
// a sift compares contiguous entries instead of chasing SM pointers. Every
// key but the top's equals its SM's clock.
type smKey struct {
	clock int64
	id    int
	sm    *smRT
}

type launch struct {
	dev    *Device
	cfg    Config
	lc     LaunchConfig
	kernel Kernel
	stats  *LaunchStats
	opts   LaunchOpts
	inj    *injection
	san    Sanitizer

	sms           []*smRT
	doms          []domain
	warpsPerBlock int
	nextBlock     atomic.Int64
	totalBlocks   int

	// maxCycles is the launch's resolved cycle budget (config overridden by
	// LaunchOpts), read by supervise.
	maxCycles int64
	// depth is how many requests a warp may queue before it yields:
	// queueDepth, or 0 (one step per instruction) under a sanitizer.
	depth int
	// progressEvery/nextProgress pace LaunchOpts.OnProgress calls.
	progressEvery int64
	nextProgress  int64

	// parallel selects one domain per SM on its own host goroutine; when
	// false the gate calls below are no-ops and one domain spans every SM.
	parallel bool

	// slots is the host worker-slot pool (parallel mode): ParallelSMs tokens
	// shared by all domain goroutines. An SM must hold a slot to execute and
	// releases it while blocked in the atomic gate, so host workers migrate
	// from stalled/finished SMs to SMs with ready work — the paper's dynamic
	// workload distribution applied at host level — without perturbing the
	// (stepKey, smID) effect order.
	slots chan struct{}

	aborted  atomic.Bool
	failMu   sync.Mutex
	abortErr error
	injFired bool

	// Atomic-gate state (parallel mode only). horizons[i] is SM i's current
	// step key (gateIdle once its loop exits); pending[i] is the key of SM
	// i's waiting gated op, gateIdle when none. minPending caches the least
	// pending key so horizon publishes can skip the broadcast when nobody
	// could be unblocked. gateMu is held for the duration of every gated
	// operation, making them mutually exclusive; the (horizon, id) ordering
	// rule makes them execute in the sequential loop's exact order.
	horizons []atomic.Int64
	pending  []int64
	gateCond *sync.Cond
	// Every gated operation writes gateMu and minPending. The pad keeps them
	// off the cache line of the fields above, which every step reads:
	// sharing it cost parallel BFS about 3% wall-clock (EXPERIMENTS.md).
	_          [64]byte
	gateMu     sync.Mutex
	minPending atomic.Int64
}

func newLaunch(d *Device, lc LaunchConfig, kernel Kernel) *launch {
	warpsPerBlock := (lc.ThreadsPerBlock + d.cfg.WarpWidth - 1) / d.cfg.WarpWidth
	l := &launch{
		dev:           d,
		cfg:           d.cfg,
		lc:            lc,
		kernel:        kernel,
		warpsPerBlock: warpsPerBlock,
		totalBlocks:   lc.Blocks,
		stats: &LaunchStats{
			WarpWidth: d.cfg.WarpWidth,
			WarpBusy:  make([]int64, lc.Blocks*warpsPerBlock),
		},
	}
	l.sms = make([]*smRT, d.cfg.NumSMs)
	for i := range l.sms {
		sm := &smRT{id: i}
		if d.cfg.CacheLines > 0 {
			sm.cache = newSMCache(d.cfg.CacheLines, d.cfg.CacheWays)
		}
		l.sms[i] = sm
	}
	l.gateCond = sync.NewCond(&l.gateMu)
	l.horizons = make([]atomic.Int64, d.cfg.NumSMs)
	l.pending = make([]int64, d.cfg.NumSMs)
	for i := range l.pending {
		l.pending[i] = gateIdle
	}
	l.minPending.Store(gateIdle)
	return l
}

func (l *launch) trace(e TraceEvent) {
	if t := l.dev.tracer; t != nil {
		t.Event(e)
	}
}

// execMode resolves the host execution mode: the effective ParallelSMs value
// and, when a parallel request is forced sequential, the reason.
func (l *launch) execMode() (int, string) {
	n := l.cfg.ParallelSMs
	if n > l.cfg.NumSMs {
		n = l.cfg.NumSMs
	}
	if n <= 1 {
		return 1, ""
	}
	// These features observe mid-launch state in ways that are only
	// meaningful under the single sequential clock: a full-fidelity tracer
	// wants one globally ordered event stream, fault injection aborts at an
	// exact cycle, and OnProgress reports a single advancing clock. A tracer
	// that declares itself parallel-safe (ParallelTracer) shards its state by
	// SM and keeps the fast path.
	switch {
	case l.dev.tracer != nil && !tracerParallelSafe(l.dev.tracer):
		return 1, "tracer"
	case l.inj != nil:
		return 1, "fault-injection"
	case l.opts.OnProgress != nil:
		return 1, "on-progress"
	case l.san != nil:
		// The sanitizer keeps cross-warp shadow state; the sequential loop
		// hands it the canonical event order with no locking.
		return 1, "sanitizer"
	}
	return n, ""
}

// run drives the launch to completion. On failure the error is typed (a
// *KernelFault, or a wrap of ErrLaunchTimeout / ErrLaunchCancelled /
// ErrDeviceLost) and the returned stats hold everything accumulated up to
// the failure — partial, but honest.
func (l *launch) run() (*LaunchStats, error) {
	maxCycles := l.cfg.MaxCycles
	if l.opts.MaxCycles > 0 {
		maxCycles = l.opts.MaxCycles
	}
	l.maxCycles = maxCycles
	l.progressEvery = l.opts.ProgressEvery
	if l.progressEvery == 0 {
		l.progressEvery = 65536
	}
	l.nextProgress = l.progressEvery
	if l.san == nil {
		l.depth = queueDepth
	}
	mode, fallback := l.execMode()
	l.parallel = mode > 1
	l.stats.ParallelSMs = mode
	l.stats.SequentialFallback = fallback
	if fallback != "" {
		l.dev.warnSequentialFallback(fallback)
	}
	if l.dev.profiling || l.opts.Profile {
		for _, sm := range l.sms {
			sm.stats.Profile = &LaunchProfile{}
		}
	}
	l.initShadows()
	if l.san != nil {
		l.san.LaunchBegin(l.lc)
	}
	l.trace(TraceEvent{Kind: TraceLaunchStart, Warp: -1, Block: -1, SM: -1})
	if l.parallel {
		l.runParallel()
	} else {
		// One domain over every SM, driven from this goroutine: the single
		// global (clock, SM) order the tracer, the sanitizer, fault
		// injection and OnProgress observe.
		l.doms = make([]domain, 1)
		l.doms[0].init(l.sms)
		l.loop(&l.doms[0])
	}
	for i := range l.doms {
		l.dev.handoffs += l.doms[i].handoffs
	}
	// A transient injection whose cycle the kernel outran still fires at
	// drain: a bit-flip already corrupted memory, so swallowing it would be
	// silent corruption. Device loss is a genuine cycle threshold — a launch
	// that finishes under it survives. (Injection forces sequential mode, so
	// this never races with SM goroutines.)
	if l.inj != nil && !l.injFired && !l.aborted.Load() && !l.inj.loseDevice {
		l.fireInjection()
	}
	l.mergeMemory()
	l.reclaimWarps()
	for _, sm := range l.sms {
		l.stats.addCounters(&sm.stats)
	}
	// The watchdog observes the clock at step granularity, so one
	// long-latency op can overshoot MaxCycles by its full latency; report
	// the budget, not the overshoot.
	timedOut := errors.Is(l.abortErr, ErrLaunchTimeout)
	for _, sm := range l.sms {
		if sm.everUsed {
			finish := sm.clock
			if timedOut && finish > maxCycles {
				finish = maxCycles
			}
			l.stats.SMFinish = append(l.stats.SMFinish, finish)
			if finish > l.stats.Cycles {
				l.stats.Cycles = finish
			}
		}
	}
	l.trace(TraceEvent{Kind: TraceLaunchEnd, Cycle: l.stats.Cycles, Warp: -1, Block: -1, SM: -1})
	if l.san != nil {
		l.san.LaunchEnd(l.abortErr)
	}
	if l.abortErr != nil {
		return l.stats, l.abortErr
	}
	return l.stats, nil
}

// runParallel runs one domain per SM, each on its own host goroutine, with
// at most ParallelSMs of them executing at any moment: each goroutine must
// hold a slot from l.slots to step, and slots migrate from gate-blocked or
// finished SMs to SMs with ready work. Simulated behavior is independent of
// the slot count — slots only bound host-level concurrency.
func (l *launch) runParallel() {
	mode := l.stats.ParallelSMs
	l.slots = make(chan struct{}, mode)
	for i := 0; i < mode; i++ {
		l.slots <- struct{}{}
	}
	l.doms = make([]domain, len(l.sms))
	var wg sync.WaitGroup
	for i, sm := range l.sms {
		d := &l.doms[i]
		d.init(l.sms[i : i+1])
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Unblock any gated op still waiting on this SM's horizon.
			defer l.publishHorizon(sm.id, gateIdle)
			l.acquireSlot(sm)
			defer l.releaseSlot(sm)
			l.loop(d)
		}()
	}
	wg.Wait()
}

// acquireSlot blocks until the SM holds a host worker slot. No locks may be
// held by the caller. No-op in sequential mode or when already held.
func (l *launch) acquireSlot(sm *smRT) {
	if l.slots == nil || sm.slotHeld {
		return
	}
	<-l.slots
	sm.slotHeld = true
}

// releaseSlot returns the SM's worker slot to the pool. The send can never
// block (slot tokens outstanding never exceed the channel capacity), so it
// is safe to call while holding gateMu.
func (l *launch) releaseSlot(sm *smRT) {
	if l.slots == nil || !sm.slotHeld {
		return
	}
	sm.slotHeld = false
	l.slots <- struct{}{}
}

// init makes d the scheduling domain of sms, given in ascending id. Every
// clock is 0, so the id order is already a heap.
func (d *domain) init(sms []*smRT) {
	d.heap = make([]smKey, len(sms))
	d.wake = make(chan struct{})
	for i, sm := range sms {
		d.heap[i] = smKey{sm.clock, sm.id, sm}
		sm.dom = d
	}
}

// loop drives one domain: it picks the first runner, hands it the token and
// parks until the token comes back, which happens only once the domain has
// nothing left to run (or has unwound after an abort).
func (l *launch) loop(d *domain) {
	for {
		w := l.drain(l.pick(d), nil)
		if w == nil {
			return
		}
		l.handOff(d, w)
		<-d.wake
	}
}

// yield is run by w's goroutine, the current pick, when w must stop
// running ahead: its queue is full, its newest request is not ahead, or its
// segment log has no room for the next memory request's segments.
// It applies w's queue head and runs the domain's scheduler (drain), then
// returns once a pick lands on w and w may run on — at once when w picks
// itself, else after handing the token over and parking. A warp that
// resumes after an abort unwinds.
func (l *launch) yield(w *warpRT) {
	sm := w.sm
	l.apply(sm, w, w.pop())
	l.supervise(sm)
	next := l.drain(l.pick(sm.dom), w)
	if next == nil {
		// Unreachable: this warp is live (and a barrier arrival that empties
		// the ready set releases its own barrier), so the pick set cannot be
		// empty. Fail loudly rather than deadlock.
		panic(fmt.Sprintf("simt: internal: no runnable warp while warp %d is live", w.globalID))
	}
	if next != w {
		l.handOff(sm.dom, next)
		<-w.resume
	}
	if l.aborted.Load() {
		panic(errAborted)
	}
}

// drain is the domain's scheduler, run by the token holder — self, a warp
// goroutine, or nil — after a pick landed on w. While the pick has requests
// queued it applies the head, supervises and picks again, with no goroutine
// switch. It returns the first pick whose goroutine must run next: a warp
// with an empty queue, or self while all of self's queued requests are
// ahead (it is the current pick and may run ahead again; its head stays
// queued); nil when the domain has nothing left to run. Only a queue's
// newest request can be non-ahead (queueing one makes the warp yield until
// its queue is empty), so the newest request's ahead bit tells the cases
// apart. After an abort nothing more is applied: a picked warp's queue is
// discarded, and a warp whose goroutine has exited (its queue ends in
// opDone) is marked done on the spot.
func (l *launch) drain(w, self *warpRT) *warpRT {
	for w != nil && w.qLen > 0 {
		sm := w.sm
		last := &w.q[(w.qHead+w.qLen-1)%queueDepth]
		switch {
		case l.aborted.Load():
			w.qHead, w.qLen = 0, 0
			if last.class != opDone {
				return w
			}
			l.unwind(w)
		case w == self && last.ahead:
			return w
		default:
			l.apply(sm, w, w.pop())
			l.supervise(sm)
		}
		// w may be recycled by the pick's admission; touch only sm from here on.
		w = l.pick(sm.dom)
	}
	return w
}

// push queues r behind w's other requests.
func (w *warpRT) push(r request) {
	w.q[(w.qHead+w.qLen)%queueDepth] = r
	w.qLen++
}

// pop dequeues w's oldest request.
func (w *warpRT) pop() request {
	r := w.q[w.qHead]
	w.qHead = (w.qHead + 1) % queueDepth
	w.qLen--
	return r
}

// compactSegs drops the segments of applied requests from w's segment log.
// The queued requests' segments are a suffix of the log, starting at the
// oldest queued memory request's, and move to its front.
func (w *warpRT) compactSegs() {
	lo := uint32(len(w.segs))
	for i := 0; i < w.qLen; i++ {
		if r := &w.q[(w.qHead+i)%queueDepth]; r.segN > 0 {
			lo = r.segOff
			break
		}
	}
	w.segs = w.segs[:copy(w.segs, w.segs[lo:])]
	for i := 0; i < w.qLen; i++ {
		if r := &w.q[(w.qHead+i)%queueDepth]; r.segN > 0 {
			r.segOff -= lo
		}
	}
}

// finish retires a warp whose kernel returned, faulted or unwound, then
// passes the token on and lets the goroutine exit. A returned or faulted
// warp queues its opDone behind any requests it still has queued; whoever
// picks the warp applies them. An unwound warp only marks itself done:
// nothing an aborted launch reports moves after the abort.
func (l *launch) finish(w *warpRT, err *KernelFault, unwound bool) {
	sm := w.sm
	next := w
	if unwound {
		l.unwind(w)
		next = l.pick(sm.dom)
	} else {
		w.push(request{class: opDone, err: err})
	}
	l.handOff(sm.dom, l.drain(next, nil))
}

// unwind marks w done without accounting for it (aborted launches).
func (l *launch) unwind(w *warpRT) {
	w.done = true
	w.sm.readyKey[w.smIdx] = neverReady
	w.sm.liveWarps--
	w.block.liveWarps--
}

// handOff passes d's token to w, or back to d's loop when w is nil. The
// first handoff to a warp starts its goroutine.
func (l *launch) handOff(d *domain, w *warpRT) {
	d.handoffs++
	switch {
	case w == nil:
		d.wake <- struct{}{}
	case !w.spawned:
		w.spawned = true
		go l.runWarp(w)
	default:
		w.resume <- struct{}{}
	}
}

// pick chooses d's next runner: the SM with the smallest (clock, id) among
// those with work, then on that SM publish the horizon, admit at most one
// block, pick a warp by the scheduler policy and run the preamble. The SM
// the last pick chose, the heap's top, is the only one whose clock may have
// risen since, so sifting it down restores the heap. After an abort it
// admits nothing and returns the next resident warp that has not unwound.
// Nil means the domain has nothing left to run.
func (l *launch) pick(d *domain) *warpRT {
	d.siftTop()
	for {
		if l.aborted.Load() {
			return d.unwindNext()
		}
		if len(d.heap) == 0 {
			return nil
		}
		sm := d.heap[0].sm
		if !l.smHasWork(sm) {
			d.popTop()
			continue
		}
		if w := l.pickOn(sm); w != nil {
			return w
		}
	}
}

// before reports whether a precedes b in pick order: smaller clock, then
// lower id.
func (a *smKey) before(b *smKey) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// siftTop moves the heap's top down to its place after its clock rose.
func (d *domain) siftTop() {
	h := d.heap
	if len(h) == 0 {
		return
	}
	top := h[0]
	top.clock = top.sm.clock
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&top) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = top
}

// popTop drops the heap's top.
func (d *domain) popTop() {
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap[n] = smKey{}
	d.heap = d.heap[:n]
	d.siftTop()
}

// pickOn is pick's per-SM half. It returns nil when sm has no runnable warp
// or the launch aborted inside the admission gate. admitBlocks runs on every
// pick, so the block distributor keeps its one-block-per-step cadence; its
// no-op pre-check is O(1).
func (l *launch) pickOn(sm *smRT) *warpRT {
	l.publishHorizon(sm.id, sm.clock)
	sm.stepKey = sm.clock
	l.admitBlocks(sm)
	if l.aborted.Load() {
		return nil
	}
	w := l.nextWarp(sm)
	if w == nil {
		return nil
	}
	// The preamble: stall accounting (suppressed for a lone not-yet-started
	// warp, i.e. plain admission latency) and the clock advance to the
	// warp's ready time. liveWarps counts resident not-done warps and w is
	// one of them, so "another live warp exists" is exactly liveWarps > 1.
	if w.readyAt > sm.clock {
		if sm.liveWarps > 1 || w.started {
			sm.stats.StallCycles += w.readyAt - sm.clock
			if p := sm.stats.Profile; p != nil {
				p.StallWait.Observe(w.readyAt - sm.clock)
			}
		}
		sm.clock = w.readyAt
	}
	w.started = true
	return w
}

// unwindNext returns d's next resident warp that has not unwound, or nil
// once every one has. Every SM with a live warp is still in the heap.
func (d *domain) unwindNext() *warpRT {
	for _, k := range d.heap {
		for _, w := range k.sm.warps {
			if !w.done {
				return w
			}
		}
	}
	return nil
}

// supervise runs the post-step checks (fault injection, MaxCycles,
// OnProgress) for the SM just stepped. Injection and OnProgress force
// sequential mode (execMode), so in parallel mode only the watchdog fires.
func (l *launch) supervise(sm *smRT) {
	if l.aborted.Load() {
		return
	}
	if l.inj != nil && !l.injFired && sm.clock >= l.inj.abortAt {
		l.fireInjection()
		return
	}
	if sm.clock > l.maxCycles {
		l.fail(fmt.Errorf("simt: launch exceeded MaxCycles=%d (possible kernel livelock): %w",
			l.maxCycles, ErrLaunchTimeout))
		return
	}
	if l.opts.OnProgress != nil && sm.clock >= l.nextProgress {
		for l.nextProgress <= sm.clock {
			l.nextProgress += l.progressEvery
		}
		if err := l.opts.OnProgress(sm.clock); err != nil {
			l.fail(fmt.Errorf("simt: launch cancelled at cycle %d: %w: %w",
				sm.clock, ErrLaunchCancelled, err))
		}
	}
}

// fireInjection triggers the launch's planned fault.
func (l *launch) fireInjection() {
	l.injFired = true
	if l.inj.loseDevice {
		l.dev.lost = true
	}
	l.fail(l.inj.err)
}

func (l *launch) smHasWork(sm *smRT) bool {
	return sm.liveWarps > 0 ||
		(l.nextBlock.Load() < int64(l.totalBlocks) && l.canAdmit(sm))
}

func (l *launch) canAdmit(sm *smRT) bool {
	return len(sm.blocks) < l.cfg.MaxBlocksPerSM &&
		sm.warpSlotsUsed+l.warpsPerBlock <= l.cfg.MaxWarpsPerSM
}

// admitBlocks hands the SM at most one pending block per scheduling step.
// Because steps are ordered by (clock, SM id) — explicitly by the pick in
// sequential mode, by the gate in parallel mode — this distributes blocks
// breadth-first across SMs, matching the hardware block distributor, and the
// block→SM assignment is identical in both modes.
//
// The unsynchronized pre-check is sound: nextBlock is monotone and, while
// this SM's horizon sits at the current step key, only operations ordered
// before this step can have advanced it. So a pre-check that reads
// "exhausted" proves the gated re-check would too.
func (l *launch) admitBlocks(sm *smRT) {
	if l.nextBlock.Load() >= int64(l.totalBlocks) || !l.canAdmit(sm) {
		return
	}
	if !l.gateEnter(sm) {
		return // aborted while waiting; the pick unwinds the domain next
	}
	if l.nextBlock.Load() < int64(l.totalBlocks) && l.canAdmit(sm) {
		blockID := int(l.nextBlock.Add(1) - 1)
		b := &blockRT{
			id:     blockID,
			shared: newSharedArena(),
		}
		for wi := 0; wi < l.warpsPerBlock; wi++ {
			w := l.takeWarp(sm)
			w.globalID = blockID*l.warpsPerBlock + wi
			w.blockID = blockID
			w.warpInBlock = wi
			w.readyAt = sm.clock
			w.busy = 0
			w.started = false
			w.done = false
			w.inBarrier = false
			w.arrivedAt = 0
			w.block = b
			w.sm = sm
			w.ctx.reset(l, w)
			w.spawned = false
			b.warps = append(b.warps, w)
		}
		b.liveWarps = len(b.warps)
		sm.blocks = append(sm.blocks, b)
		sm.warps = append(sm.warps, b.warps...)
		for _, w := range b.warps {
			w.smIdx = len(sm.readyKey)
			sm.readyKey = append(sm.readyKey, w.readyAt)
		}
		sm.liveWarps += len(b.warps)
		sm.warpSlotsUsed += l.warpsPerBlock
		sm.everUsed = true
		sm.stats.BlocksLaunched++
		sm.stats.WarpsLaunched += len(b.warps)
		l.trace(TraceEvent{Kind: TraceBlockStart, Cycle: sm.clock, SM: sm.id, Block: blockID, Warp: -1})
	}
	l.gateExit(sm)
}

// takeWarp returns a warp runtime for admission: this SM's own retired warps
// first, then the device-level pool (accessed only under the admission gate,
// which is mutually exclusive across SMs), then a fresh allocation. A
// recycled warp's goroutine has passed the token on for the last time, so
// its channel is quiescent and safe to reuse.
func (l *launch) takeWarp(sm *smRT) *warpRT {
	if n := len(sm.warpFree); n > 0 {
		w := sm.warpFree[n-1]
		sm.warpFree = sm.warpFree[:n-1]
		return w
	}
	if n := len(l.dev.warpPool); n > 0 {
		w := l.dev.warpPool[n-1]
		l.dev.warpPool = l.dev.warpPool[:n-1]
		return w
	}
	return &warpRT{
		resume: make(chan struct{}),
		segs:   make([]uint64, 0, 2*l.cfg.WarpWidth),
		ctx:    newWarpCtx(l.cfg.WarpWidth),
	}
}

// warpPoolCap bounds the device-level warp pool so one huge launch doesn't
// pin its whole grid's worth of warp runtimes forever.
const warpPoolCap = 4096

// reclaimWarps moves the per-SM free lists into the device pool at launch
// end (single-threaded: every domain loop has joined). Warps of unretired blocks
// (failed launches) are simply dropped to the GC.
func (l *launch) reclaimWarps() {
	for _, sm := range l.sms {
		for _, w := range sm.warpFree {
			if len(l.dev.warpPool) >= warpPoolCap {
				break
			}
			w.block = nil
			w.sm = nil
			w.ctx.l = nil
			w.ctx.w = nil
			l.dev.warpPool = append(l.dev.warpPool, w)
		}
		sm.warpFree = nil
	}
}

// runWarp is the warp goroutine body. Any panic escaping the kernel —
// including the typed *KernelFault panics raised by buffer bounds checks —
// is recovered here, located (block/warp; the cycle when its opDone
// applies), and reported through finish so Launch returns it as a typed
// error. The goroutine starts holding its domain's token and every wake-up
// is a token handoff, so it holds the token when it finishes.
func (l *launch) runWarp(w *warpRT) {
	defer func() {
		var err *KernelFault
		unwound := false
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *KernelFault:
				v.Block, v.Warp = w.blockID, w.globalID
				err = v
			case error:
				if unwound = errors.Is(v, errAborted); !unwound {
					err = l.panicFault(w, r)
				}
			default:
				err = l.panicFault(w, r)
			}
		}
		l.finish(w, err, unwound)
	}()
	if l.aborted.Load() {
		panic(errAborted)
	}
	l.kernel(w.ctx)
}

// panicFault wraps an arbitrary kernel panic as a typed fault.
func (l *launch) panicFault(w *warpRT, r interface{}) *KernelFault {
	return &KernelFault{
		Kind:  FaultPanic,
		Index: -1,
		Block: w.blockID, Warp: w.globalID, Lane: -1,
		Detail: fmt.Sprint(r),
		Stack:  string(debug.Stack()),
	}
}

// nextWarp picks the next resident warp per the scheduler policy, skipping
// done and barrier-blocked warps.
//
// "gto" (default) issues the warp with the smallest ready time (FIFO by
// global id on ties) — greedy-then-oldest. "lrr" rotates a cursor through
// the warps already ready at the current clock, falling back to the soonest
// ready warp when none is.
func (l *launch) nextWarp(sm *smRT) *warpRT {
	// sm.warps stays sorted by ascending globalID (blocks are admitted in
	// increasing id order and retirement filters stably), so keeping the
	// first-encountered warp on readyAt ties IS the lowest-global-id
	// tie-break. Done and barrier-blocked warps carry neverReady keys and
	// lose every comparison.
	bestIdx := -1
	bestKey := int64(neverReady)
	for i, k := range sm.readyKey {
		if k < bestKey {
			bestKey, bestIdx = k, i
		}
	}
	if bestIdx < 0 {
		return nil
	}
	best := sm.warps[bestIdx]
	if l.cfg.SchedulerPolicy != "lrr" {
		return best
	}
	n := len(sm.warps)
	for i := 1; i <= n; i++ {
		j := (sm.rrCursor + i) % n
		w := sm.warps[j]
		if w.done || w.inBarrier || w.readyAt > sm.clock {
			continue
		}
		sm.rrCursor = j
		return w
	}
	return best
}

// apply accounts for and times w's request r on sm. Every per-instruction
// counter is kept here rather than in the kernel-side primitives, so a
// request counts exactly when the scheduler reaches it, in one-step order,
// and a queued request an abort discards counts nothing.
func (l *launch) apply(sm *smRT, w *warpRT, r request) {
	s := &sm.stats
	width := int64(l.cfg.WarpWidth)
	var latency, txns int64
	switch r.class {
	case opALU:
		latency = l.cfg.ALULatency
		s.countInstr(r.issue, r.issue, int64(r.active), int64(r.useful), width)
		if r.divergent {
			s.DivergentBranches++
		}
	case opShared:
		latency = l.cfg.SharedLatency
		s.countInstr(1, r.issue, int64(r.active), int64(r.active), width)
		s.SharedOps++
		s.SharedBankConflicts += r.extra
	case opLoad, opStore, opAtomic:
		txns, latency = l.memAccess(sm, w, r)
	}
	if l.dev.tracer != nil && r.class != opDone {
		l.trace(TraceEvent{
			Kind: TraceInstr, Cycle: sm.clock, SM: sm.id, Block: w.blockID, Warp: w.globalID,
			Class: classString(r.class), Issue: r.issue, Latency: latency, Txns: txns,
		})
	}
	if p := s.Profile; p != nil && r.class != opDone {
		p.InstrLatency.Observe(latency)
		if r.class == opLoad || r.class == opStore || r.class == opAtomic {
			p.MemTxns.Observe(txns)
		}
	}
	switch r.class {
	case opALU, opShared:
		sm.clock += r.issue
		w.readyAt = sm.clock + latency
		sm.readyKey[w.smIdx] = w.readyAt
		w.busy += r.issue + latency
	case opLoad, opStore, opAtomic:
		// One compute-pipe slot to issue, then the memory pipe carries the
		// transactions; the warp waits out the full memory latency.
		sm.clock++
		start := sm.clock
		if sm.memPipeFree > start {
			start = sm.memPipeFree
		}
		sm.memPipeFree = start + txns*l.cfg.MemPipeCyclesPerTxn
		w.readyAt = sm.memPipeFree + latency
		sm.readyKey[w.smIdx] = w.readyAt
		w.busy += (sm.memPipeFree - sm.clock + 1) + latency
	case opBarrier:
		b := w.block
		w.inBarrier = true
		w.arrivedAt = sm.clock
		w.readyAt = neverReady
		sm.readyKey[w.smIdx] = neverReady
		b.inBarrier++
		if sm.clock > b.barrierLatest {
			b.barrierLatest = sm.clock
		}
		l.maybeReleaseBarrier(sm, b)
	case opDone:
		w.done = true
		w.readyAt = neverReady
		sm.readyKey[w.smIdx] = neverReady
		sm.liveWarps--
		if l.san != nil && r.err == nil {
			l.san.WarpDone(w.blockID, w.globalID, w.ctx.barriers)
		}
		l.trace(TraceEvent{Kind: TraceWarpDone, Cycle: sm.clock, SM: sm.id, Block: w.blockID, Warp: w.globalID})
		if p := sm.stats.Profile; p != nil {
			p.WarpBusy.Observe(w.busy)
		}
		l.stats.WarpBusy[w.globalID] = w.busy
		b := w.block
		b.liveWarps--
		if r.err != nil && !l.aborted.Load() {
			r.err.Cycle = sm.clock
			// A fault during a launch with a pending transient injection is
			// attributed to the injection: the corruption it planted is the
			// root cause of whatever the kernel tripped over, and reporting
			// it as transient keeps retry-with-restore sound.
			if l.inj != nil && !l.injFired && !l.inj.loseDevice {
				l.fireInjection()
			} else {
				l.fail(r.err)
			}
			return
		}
		if b.liveWarps == 0 {
			l.trace(TraceEvent{Kind: TraceBlockEnd, Cycle: sm.clock, SM: sm.id, Block: b.id, Warp: -1})
			l.retireBlock(sm, b)
		} else {
			// A warp exiting may satisfy an outstanding barrier.
			l.maybeReleaseBarrier(sm, b)
		}
	}
}

// memAccess accounts for a global-memory request over the segments w's
// primitive coalesced into its segment log, looks them up in or invalidates
// them from the SM's read-only cache, and returns the DRAM transactions and
// latency.
func (l *launch) memAccess(sm *smRT, w *warpRT, r request) (txns, latency int64) {
	s := &sm.stats
	segs := w.segs[r.segOff : r.segOff+uint32(r.segN)]
	txns = int64(len(segs))
	s.countInstr(1, txns, int64(r.active), int64(r.useful), int64(l.cfg.WarpWidth))
	s.MemOps++
	extra := r.extra * l.cfg.AtomicExtraLatency
	latency = l.cfg.DRAMLatency + extra
	switch {
	case sm.cache != nil && r.class == opLoad:
		misses := int64(0)
		for _, seg := range segs {
			if !sm.cache.access(seg) {
				misses++
			}
		}
		s.CacheHits += txns - misses
		s.CacheMisses += misses
		if misses == 0 {
			latency = l.cfg.CacheHitLatency + extra
		}
		txns = misses
	case sm.cache != nil:
		for _, seg := range segs {
			sm.cache.invalidate(seg)
		}
	}
	s.MemTxns += txns
	s.MemBytes += txns * int64(l.cfg.SegmentBytes)
	if r.class == opAtomic {
		s.AtomicOps++
		s.AtomicSerial += r.extra
	}
	return txns, latency
}

func (l *launch) maybeReleaseBarrier(sm *smRT, b *blockRT) {
	if b.inBarrier == 0 || b.inBarrier < b.liveWarps {
		return
	}
	for _, w := range b.warps {
		if w.inBarrier {
			w.inBarrier = false
			w.readyAt = b.barrierLatest + 1
			sm.readyKey[w.smIdx] = w.readyAt
		}
	}
	l.trace(TraceEvent{Kind: TraceBarrierRelease, Cycle: b.barrierLatest, SM: sm.id, Block: b.id, Warp: -1})
	b.inBarrier = 0
	b.barrierLatest = 0
	sm.stats.Barriers++
}

func (l *launch) retireBlock(sm *smRT, b *blockRT) {
	for i, bb := range sm.blocks {
		if bb == b {
			sm.blocks = append(sm.blocks[:i], sm.blocks[i+1:]...)
			break
		}
	}
	live := sm.warps[:0]
	keys := sm.readyKey[:0]
	for i, w := range sm.warps {
		if w.block != b {
			w.smIdx = len(live)
			live = append(live, w)
			keys = append(keys, sm.readyKey[i])
		}
	}
	sm.warps = live
	sm.readyKey = keys
	sm.warpSlotsUsed -= l.warpsPerBlock
	// Every warp of the block is done and has passed the token on for the
	// last time, so the runtimes can serve the next admission.
	sm.warpFree = append(sm.warpFree, b.warps...)
}

// fail cancels the launch; the first error wins. Each domain's token holder
// notices the flag at its next pick and the domain unwinds; warps blocked in
// the atomic gate are woken by the broadcast and unwind the same way.
func (l *launch) fail(err error) {
	l.failMu.Lock()
	if l.abortErr == nil {
		l.abortErr = err
	}
	l.failMu.Unlock()
	l.aborted.Store(true)
	l.gateMu.Lock()
	l.gateCond.Broadcast()
	l.gateMu.Unlock()
}

// --- the atomic gate -----------------------------------------------------
//
// Sequential-mode memory effects execute in lexicographic (step clock, SM
// id, program order) order. In parallel mode the cross-SM effects (overlay
// atomics, block admission) reproduce that order by waiting until no other
// SM can still produce an earlier-ordered effect: SM j cannot once its
// horizon — the clock of the step it is currently executing, monotone
// non-decreasing — has passed the waiter's key. The waiter then holds
// gateMu for the duration of the operation. Two gated ops can never be
// admitted concurrently (each one's clearance asserts it orders after the
// other — a contradiction), so the gate also provides mutual exclusion and
// the happens-before edges that publish overlay data between SMs.

// publishHorizon announces that every effect sm will produce from now on has
// ordering key >= key. Waiters are only woken when the new horizon could
// actually clear someone.
func (l *launch) publishHorizon(smID int, key int64) {
	if !l.parallel {
		return
	}
	l.horizons[smID].Store(key)
	if key >= l.minPending.Load() {
		l.gateMu.Lock()
		l.gateCond.Broadcast()
		l.gateMu.Unlock()
	}
}

// gateEnter blocks until every cross-SM effect ordered before sm's current
// step has executed, then returns true with the gate held (release with
// gateExit). It returns false — gate not held — if the launch aborted while
// waiting. Sequential mode: no-op, returns true.
func (l *launch) gateEnter(sm *smRT) bool {
	if !l.parallel {
		return true
	}
	key := sm.stepKey
	l.gateMu.Lock()
	l.pending[sm.id] = key
	if key < l.minPending.Load() {
		l.minPending.Store(key)
	}
	for {
		if l.aborted.Load() {
			l.pending[sm.id] = gateIdle
			l.refreshMinPending()
			l.gateMu.Unlock()
			return false
		}
		if l.gateClear(key, sm.id) {
			return true
		}
		// Hand the host worker slot to an SM that can actually run — this
		// SM is blocked until the others advance their horizons, and they
		// may be waiting for a slot to do exactly that. The send cannot
		// block (see releaseSlot), so holding gateMu here is fine; the slot
		// is reacquired in gateExit after gateMu is dropped.
		l.releaseSlot(sm)
		l.gateCond.Wait()
	}
}

// gateExit releases the gate taken by gateEnter, then reacquires the SM's
// host worker slot if gateEnter gave it away while waiting (a no-op when the
// wait never blocked). Acquisition happens strictly after gateMu is dropped,
// so no goroutine ever blocks on the slot pool while holding the gate.
func (l *launch) gateExit(sm *smRT) {
	if !l.parallel {
		return
	}
	l.pending[sm.id] = gateIdle
	l.refreshMinPending()
	l.gateMu.Unlock()
	l.acquireSlot(sm)
}

// gateClear reports whether a gated op with ordering key (key, smID) may
// execute: every other SM must have moved past it.
func (l *launch) gateClear(key int64, smID int) bool {
	for j := range l.horizons {
		if j == smID {
			continue
		}
		h := l.horizons[j].Load()
		if h > key || (h == key && j > smID) {
			continue
		}
		return false
	}
	return true
}

// refreshMinPending recomputes the least pending gate key. Caller holds
// gateMu.
func (l *launch) refreshMinPending() {
	min := gateIdle
	for _, k := range l.pending {
		if k < min {
			min = k
		}
	}
	l.minPending.Store(min)
}

// --- launch-scoped memory shadows ----------------------------------------

// initShadows arms every device buffer's per-SM store shadows and atomic
// overlay for this launch (see the memory-model comment in mem.go).
func (l *launch) initShadows() {
	n := l.cfg.NumSMs
	for _, b := range l.dev.bufsI32 {
		b.sh = make([]*bufShadow[int32], n)
		b.ov = nil
	}
	for _, b := range l.dev.bufsF32 {
		b.sh = make([]*bufShadow[float32], n)
		b.ov = nil
	}
}

// mergeMemory folds every buffer's launch-scoped shadows back into its base
// array: per-SM store shadows in ascending SM id, then the atomic overlay
// last so final atomic values beat any stale same-cell plain store. A cell
// that mixes plain stores and atomics within one launch has no sequential
// analogue; the overlay-last rule makes the outcome deterministic.
func (l *launch) mergeMemory() {
	for _, b := range l.dev.bufsI32 {
		for _, sh := range b.sh {
			if sh != nil {
				sh.merge()
			}
		}
		if b.ov != nil {
			b.ov.merge()
		}
		b.sh, b.ov = nil, nil
	}
	for _, b := range l.dev.bufsF32 {
		for _, sh := range b.sh {
			if sh != nil {
				sh.merge()
			}
		}
		if b.ov != nil {
			b.ov.merge()
		}
		b.sh, b.ov = nil, nil
	}
}
