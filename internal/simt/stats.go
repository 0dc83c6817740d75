package simt

import (
	"fmt"
	"math"
)

// LaunchStats aggregates everything measured during one kernel launch.
// These counters are the raw material for the paper's figures: SIMD lane
// utilization (ALU underutilization axis), per-warp busy-cycle spread
// (workload imbalance axis), memory transactions (coalescing), and total
// cycles (the headline speedups).
type LaunchStats struct {
	// Cycles is the simulated completion time: the max over SMs of their
	// final clock.
	Cycles int64
	// StallCycles sums, over SMs, the cycles where the SM had resident warps
	// but none ready to issue (unhidden latency).
	StallCycles int64

	// IssueSlots counts pipeline slots consumed by warp instructions
	// (a multi-transaction memory op consumes several).
	IssueSlots int64
	// Instructions counts warp instructions issued.
	Instructions int64
	// ActiveLaneOps sums active lanes over issued instructions; divided by
	// Instructions×WarpWidth it yields SIMD utilization.
	ActiveLaneOps int64
	// UsefulLaneOps is like ActiveLaneOps but counts replicated (SISD-phase)
	// lanes only once per virtual-warp group; it is the numerator of the
	// paper's "useful ALU utilization".
	UsefulLaneOps int64
	// LaneSlots counts the lane capacity offered by issued instructions
	// (Instructions x the warp width each instruction ran at). It is the
	// exact utilization denominator and, unlike Instructions*WarpWidth,
	// stays correct when stats from devices with different warp widths are
	// totaled with Add.
	LaneSlots int64

	// MemOps / MemTxns / MemBytes describe global-memory traffic. MemTxns
	// per MemOps measures coalescing quality.
	MemOps   int64
	MemTxns  int64
	MemBytes int64

	// AtomicOps counts atomic warp instructions; AtomicSerial sums the
	// extra same-address serialization steps beyond the first.
	AtomicOps    int64
	AtomicSerial int64

	// CacheHits and CacheMisses count read-only-cache outcomes per load
	// transaction (both zero when Config.CacheLines == 0).
	CacheHits   int64
	CacheMisses int64

	// SharedOps and SharedBankConflicts describe shared-memory traffic.
	SharedOps           int64
	SharedBankConflicts int64

	// FullMaskOps counts issued instructions whose active mask covered every
	// lane — the non-divergent common case the interpreter's full-mask fast
	// path batches. FullMaskOps/Instructions measures how often the fast
	// path applies; the counter is derived from the mask state (not the code
	// path taken), so it is identical whether the fast path is enabled or
	// disabled.
	FullMaskOps int64

	// DivergentBranches counts If points where both paths had active lanes.
	DivergentBranches int64
	// Barriers counts block-wide barrier releases.
	Barriers int64

	// WarpsLaunched and BlocksLaunched describe the grid actually run.
	WarpsLaunched  int
	BlocksLaunched int

	// WarpBusy holds, per warp, the busy cycles charged to it (issue +
	// latency). The spread across warps is the workload-imbalance metric.
	WarpBusy []int64

	// SMFinish holds each SM's final clock.
	SMFinish []int64

	// WarpWidth records the machine width for utilization math. After an Add
	// across devices with different widths it keeps the first width seen;
	// utilizations stay exact because they divide by LaneSlots.
	WarpWidth int

	// Profile holds the optional per-launch histograms (nil unless profiling
	// was enabled via Device.SetProfiling or LaunchOpts.Profile).
	Profile *LaunchProfile

	// ParallelSMs records the host execution mode the launch actually used
	// (1 = sequential event loop, >1 = per-SM goroutines). Informational;
	// Add adopts the first non-zero value, so multi-launch algorithm totals
	// report the mode their launches ran under.
	ParallelSMs int
	// SequentialFallback names the reason a ParallelSMs>1 launch was forced
	// onto the sequential loop ("tracer", "fault-injection", "on-progress"),
	// or is empty. Informational; Add adopts the first non-empty value.
	SequentialFallback string
}

// laneSlots returns the utilization denominator: the recorded LaneSlots, or
// the legacy Instructions*WarpWidth estimate for hand-built stats that never
// went through a launch.
func (s *LaunchStats) laneSlots() int64 {
	if s.LaneSlots > 0 {
		return s.LaneSlots
	}
	return s.Instructions * int64(s.WarpWidth)
}

// SIMDUtilization returns active-lane occupancy in [0,1]: how full the SIMD
// lanes were across all issued instructions.
func (s *LaunchStats) SIMDUtilization() float64 {
	slots := s.laneSlots()
	if slots == 0 {
		return 0
	}
	return float64(s.ActiveLaneOps) / float64(slots)
}

// UsefulUtilization returns the fraction of lane-ops doing non-redundant
// work (replicated SISD-phase execution counts once per virtual warp).
func (s *LaunchStats) UsefulUtilization() float64 {
	slots := s.laneSlots()
	if slots == 0 {
		return 0
	}
	return float64(s.UsefulLaneOps) / float64(slots)
}

// WarpImbalanceCV returns the coefficient of variation of per-warp busy
// cycles: 0 for perfectly balanced warps, large for skewed workloads.
// Variance uses the two-pass sum of squared deviations: the textbook
// E[x^2]-E[x]^2 shortcut cancels catastrophically when busy cycles are large
// and nearly equal, reporting 0 spread for warps that do differ.
func (s *LaunchStats) WarpImbalanceCV() float64 {
	n := len(s.WarpBusy)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, b := range s.WarpBusy {
		sum += float64(b)
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var sqdev float64
	for _, b := range s.WarpBusy {
		d := float64(b) - mean
		sqdev += d * d
	}
	return math.Sqrt(sqdev/float64(n)) / mean
}

// WarpBusyMaxOverMean returns max/mean of per-warp busy cycles, a second
// imbalance view (the straggler factor).
func (s *LaunchStats) WarpBusyMaxOverMean() float64 {
	n := len(s.WarpBusy)
	if n == 0 {
		return 0
	}
	var sum float64
	var maxB int64
	for _, b := range s.WarpBusy {
		sum += float64(b)
		if b > maxB {
			maxB = b
		}
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	return float64(maxB) / mean
}

// SMFinishCV returns the coefficient of variation of per-SM finish clocks:
// 0 when every SM retires its last block at the same simulated cycle, large
// when an unlucky SM's block assignment serializes the launch tail. It is
// the block-distributor analogue of WarpImbalanceCV.
func (s *LaunchStats) SMFinishCV() float64 {
	n := len(s.SMFinish)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, f := range s.SMFinish {
		sum += float64(f)
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var sqdev float64
	for _, f := range s.SMFinish {
		d := float64(f) - mean
		sqdev += d * d
	}
	return math.Sqrt(sqdev/float64(n)) / mean
}

// TxnsPerMemOp returns average transactions per global-memory instruction
// (1.0 = perfectly coalesced, WarpWidth = fully scattered).
func (s *LaunchStats) TxnsPerMemOp() float64 {
	if s.MemOps == 0 {
		return 0
	}
	return float64(s.MemTxns) / float64(s.MemOps)
}

// TimeMS converts simulated cycles to milliseconds at the given clock.
func (s *LaunchStats) TimeMS(clockGHz float64) float64 {
	return float64(s.Cycles) / (clockGHz * 1e6)
}

// Add accumulates other into s (used to total multi-launch algorithms such
// as level-synchronous BFS). Per-warp vectors are concatenated; Cycles adds
// because launches are sequential.
//
// Stats from devices with different warp widths merge safely: lane-op
// accounting is normalized through LaneSlots (backfilled from
// Instructions*WarpWidth for stats that predate the field), so the
// utilization ratios stay exact instead of silently adopting one width's
// denominator.
func (s *LaunchStats) Add(other *LaunchStats) {
	// Normalize lane-slot accounting before the widths can disagree.
	if s.LaneSlots == 0 && s.Instructions > 0 {
		w := s.WarpWidth
		if w == 0 {
			w = other.WarpWidth
		}
		s.LaneSlots = s.Instructions * int64(w)
	}
	otherSlots := other.LaneSlots
	if otherSlots == 0 && other.Instructions > 0 {
		w := other.WarpWidth
		if w == 0 {
			w = s.WarpWidth
		}
		otherSlots = other.Instructions * int64(w)
	}
	s.LaneSlots += otherSlots

	s.Cycles += other.Cycles
	s.StallCycles += other.StallCycles
	s.IssueSlots += other.IssueSlots
	s.Instructions += other.Instructions
	s.ActiveLaneOps += other.ActiveLaneOps
	s.UsefulLaneOps += other.UsefulLaneOps
	s.MemOps += other.MemOps
	s.MemTxns += other.MemTxns
	s.MemBytes += other.MemBytes
	s.AtomicOps += other.AtomicOps
	s.AtomicSerial += other.AtomicSerial
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.SharedOps += other.SharedOps
	s.SharedBankConflicts += other.SharedBankConflicts
	s.FullMaskOps += other.FullMaskOps
	s.DivergentBranches += other.DivergentBranches
	s.Barriers += other.Barriers
	s.WarpsLaunched += other.WarpsLaunched
	s.BlocksLaunched += other.BlocksLaunched
	s.WarpBusy = append(s.WarpBusy, other.WarpBusy...)
	s.SMFinish = append(s.SMFinish, other.SMFinish...)
	if s.WarpWidth == 0 {
		s.WarpWidth = other.WarpWidth
	}
	if s.ParallelSMs == 0 {
		s.ParallelSMs = other.ParallelSMs
	}
	if s.SequentialFallback == "" {
		s.SequentialFallback = other.SequentialFallback
	}
	s.mergeProfile(other.Profile)
}

// mergeProfile folds another launch's histograms into s, allocating the
// receiver's profile on first use so unprofiled launches stay nil.
func (s *LaunchStats) mergeProfile(o *LaunchProfile) {
	if o == nil {
		return
	}
	if s.Profile == nil {
		s.Profile = &LaunchProfile{}
	}
	s.Profile.add(o)
}

// countInstr counts instrs warp instructions occupying slots issue slots,
// each over active lanes of a width-wide warp, useful of them doing useful
// work.
func (s *LaunchStats) countInstr(instrs, slots, active, useful, width int64) {
	s.Instructions += instrs
	s.IssueSlots += slots
	s.ActiveLaneOps += instrs * active
	s.UsefulLaneOps += instrs * useful
	s.LaneSlots += instrs * width
	if active == width {
		s.FullMaskOps += instrs
	}
}

// addCounters folds a per-SM shard's counters into the merged launch stats.
// Cycles, WarpBusy, SMFinish, WarpWidth, and the execution-mode fields are
// owned by the scheduler's merge epilogue and are not touched here.
func (s *LaunchStats) addCounters(o *LaunchStats) {
	s.StallCycles += o.StallCycles
	s.IssueSlots += o.IssueSlots
	s.Instructions += o.Instructions
	s.ActiveLaneOps += o.ActiveLaneOps
	s.UsefulLaneOps += o.UsefulLaneOps
	s.LaneSlots += o.LaneSlots
	s.MemOps += o.MemOps
	s.MemTxns += o.MemTxns
	s.MemBytes += o.MemBytes
	s.AtomicOps += o.AtomicOps
	s.AtomicSerial += o.AtomicSerial
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.SharedOps += o.SharedOps
	s.SharedBankConflicts += o.SharedBankConflicts
	s.FullMaskOps += o.FullMaskOps
	s.DivergentBranches += o.DivergentBranches
	s.Barriers += o.Barriers
	s.WarpsLaunched += o.WarpsLaunched
	s.BlocksLaunched += o.BlocksLaunched
	s.mergeProfile(o.Profile)
}

// String renders the headline counters on one line.
func (s *LaunchStats) String() string {
	return fmt.Sprintf(
		"cycles=%d stall=%d instr=%d simd=%.2f useful=%.2f memTxns=%d txns/op=%.2f atomics=%d(+%d) div=%d imbalCV=%.2f",
		s.Cycles, s.StallCycles, s.Instructions, s.SIMDUtilization(), s.UsefulUtilization(),
		s.MemTxns, s.TxnsPerMemOp(), s.AtomicOps, s.AtomicSerial, s.DivergentBranches, s.WarpImbalanceCV())
}
