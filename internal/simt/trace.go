package simt

// Execution tracing: an optional per-launch event stream for debugging
// kernels and studying schedules. Tracing is off unless a Tracer is set on
// the device; the hot path pays one nil-check per instruction.

// TraceKind classifies trace events.
type TraceKind uint8

const (
	// TraceLaunchStart marks the beginning of a kernel launch.
	TraceLaunchStart TraceKind = iota
	// TraceLaunchEnd marks launch completion (Cycle = total cycles).
	TraceLaunchEnd
	// TraceBlockStart marks a block's admission to an SM.
	TraceBlockStart
	// TraceBlockEnd marks a block's retirement.
	TraceBlockEnd
	// TraceInstr marks one issued warp instruction.
	TraceInstr
	// TraceBarrierRelease marks a block barrier opening.
	TraceBarrierRelease
	// TraceWarpDone marks a warp's completion.
	TraceWarpDone
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceLaunchStart:
		return "launch-start"
	case TraceLaunchEnd:
		return "launch-end"
	case TraceBlockStart:
		return "block-start"
	case TraceBlockEnd:
		return "block-end"
	case TraceInstr:
		return "instr"
	case TraceBarrierRelease:
		return "barrier"
	case TraceWarpDone:
		return "warp-done"
	}
	return "unknown"
}

// TraceEvent is one scheduler observation.
type TraceEvent struct {
	Kind  TraceKind
	Cycle int64
	SM    int
	Block int
	// Warp is the grid-global warp id (-1 when not applicable).
	Warp int
	// Class describes the instruction for TraceInstr events:
	// "alu", "mem", "atomic", "shared", "barrier".
	Class string
	// Issue/Latency/Txns echo the instruction's cost for TraceInstr.
	Issue, Latency, Txns int64
}

// Tracer receives events during a launch. Implementations must not call
// back into the Device.
//
// A plain Tracer receives events from a single goroutine: attaching one to a
// ParallelSMs>1 device forces the launch onto the sequential event loop
// (recorded in LaunchStats.SequentialFallback). A tracer that additionally
// implements ParallelTracer and reports ParallelSafe() == true keeps the
// parallel fast path; its Event method is then called concurrently from one
// goroutine per SM and must shard its state by TraceEvent.SM (see
// obs.SamplingTracer).
type Tracer interface {
	Event(TraceEvent)
}

// ParallelTracer marks a Tracer whose Event method is safe to call
// concurrently from per-SM host goroutines. Per-SM event streams are
// bit-identical across host modes, so a sharding tracer can still produce
// deterministic output.
type ParallelTracer interface {
	Tracer
	// ParallelSafe reports whether this tracer instance may receive events
	// concurrently (one calling goroutine per SM).
	ParallelSafe() bool
}

// tracerParallelSafe reports whether t opts out of the sequential fallback.
func tracerParallelSafe(t Tracer) bool {
	p, ok := t.(ParallelTracer)
	return ok && p.ParallelSafe()
}

// SetTracer installs (or with nil removes) the device's tracer. It applies
// to subsequent launches.
func (d *Device) SetTracer(t Tracer) { d.tracer = t }

// RingTracer retains the most recent Cap events in memory.
type RingTracer struct {
	// Cap bounds retained events (default 1<<16 when zero).
	Cap int

	events []TraceEvent
	next   int
	filled bool
	total  int64
}

// Event implements Tracer.
func (r *RingTracer) Event(e TraceEvent) {
	if r.Cap <= 0 {
		r.Cap = 1 << 16
	}
	if r.events == nil {
		r.events = make([]TraceEvent, r.Cap)
	}
	r.events[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Total returns how many events were observed (including evicted ones).
func (r *RingTracer) Total() int64 { return r.total }

// Events returns the retained events in arrival order.
func (r *RingTracer) Events() []TraceEvent {
	if r.events == nil {
		return nil
	}
	if !r.filled {
		return append([]TraceEvent(nil), r.events[:r.next]...)
	}
	out := make([]TraceEvent, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Reset clears the buffer.
func (r *RingTracer) Reset() {
	r.events = nil
	r.next = 0
	r.filled = false
	r.total = 0
}

// CountTracer counts events by kind without retaining them.
type CountTracer struct {
	Counts [TraceWarpDone + 1]int64
}

// Event implements Tracer.
func (c *CountTracer) Event(e TraceEvent) {
	if int(e.Kind) < len(c.Counts) {
		c.Counts[e.Kind]++
	}
}

func classString(c opClass) string {
	switch c {
	case opALU:
		return "alu"
	case opLoad, opStore:
		return "mem"
	case opAtomic:
		return "atomic"
	case opShared:
		return "shared"
	case opBarrier:
		return "barrier"
	}
	return "other"
}
