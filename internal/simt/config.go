// Package simt is a deterministic discrete-event simulator of a CUDA-style
// SIMT GPU. It is the hardware substrate for this repository's reproduction
// of Hong et al., "Accelerating CUDA Graph Algorithms at Maximum Warp"
// (PPoPP 2011): the machine has streaming multiprocessors (SMs) that host
// resident thread blocks, each block is executed as lockstep warps of
// WarpWidth lanes, and the simulator models the first-order performance
// mechanisms the paper studies — branch divergence and intra-warp workload
// imbalance, global-memory coalescing, atomic serialization, shared-memory
// bank conflicts, block barriers, and latency hiding through warp
// oversubscription.
//
// Kernels are ordinary Go functions of a *WarpCtx. Per-lane values are plain
// slices of length WarpWidth; control flow uses structured primitives (If,
// While) that maintain the active-lane mask exactly like a SIMT
// reconvergence stack. Data manipulation runs natively (functionally exact);
// its cost is charged in instruction issues. Everything is deterministic:
// simulated effects execute in lexicographic (step key, SM id) order, so
// atomics have a reproducible global order. Sequential mode realizes that
// order with one scheduling domain over every SM that always steps the SM
// with the smallest clock; with Config.ParallelSMs > 1 each SM is its own
// domain on its own host goroutine and synchronizes only at globally
// visible operations (global-memory atomics, block admission), reproducing
// the same order bit-for-bit.
package simt

import (
	"fmt"
	"runtime"
)

// Config describes the simulated GPU. The defaults are loosely modeled on
// the GTX 275-class hardware used in the paper (tens of SMs, 32-wide warps,
// ~400-cycle DRAM latency, 128-byte coalescing segments); exact magnitudes
// matter less than the ratios between ALU, DRAM, and atomic costs.
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// WarpWidth is the SIMD width of a warp (CUDA: 32).
	WarpWidth int
	// MaxWarpsPerSM bounds resident warp contexts per SM; more resident
	// warps mean better memory-latency hiding.
	MaxWarpsPerSM int
	// MaxBlocksPerSM bounds resident thread blocks per SM.
	MaxBlocksPerSM int

	// ALULatency is the result latency of an arithmetic warp instruction.
	ALULatency int64
	// DRAMLatency is the latency of a global-memory access.
	DRAMLatency int64
	// MemPipeCyclesPerTxn is how long the SM's memory pipe is occupied per
	// 	coalesced transaction; it is what makes scattered accesses expensive
	// even when latency is hidden.
	MemPipeCyclesPerTxn int64
	// SegmentBytes is the memory coalescing granularity (CUDA: 128).
	SegmentBytes int
	// AtomicExtraLatency is the additional serialization latency charged per
	// extra atomic lane targeting the same address in one warp instruction.
	AtomicExtraLatency int64
	// SharedLatency is the latency of a shared-memory access.
	SharedLatency int64
	// SharedBanks is the number of shared-memory banks.
	SharedBanks int

	// CacheLines enables a per-SM read-only data cache of that many
	// SegmentBytes-sized lines (0 = disabled, the GT200-like default).
	// Only loads are cached; stores and atomics bypass and invalidate.
	CacheLines int
	// CacheWays is the cache associativity (default 4 when caching).
	CacheWays int
	// CacheHitLatency is the load latency on a cache hit (default 40).
	CacheHitLatency int64

	// SchedulerPolicy selects the per-SM warp scheduler: "gto" (default,
	// greedy-then-oldest: lowest ready-time first) or "lrr" (loose
	// round-robin: rotate through ready warps).
	SchedulerPolicy string

	// ParallelSMs selects the host execution mode. In both modes a warp
	// queues its ALU-class instructions and runs ahead through them, and the
	// goroutine holding an execution token applies queued instructions in
	// one-step order, picks the successor and hands the token straight to
	// it only when the successor must run Go code first — no supervisor
	// round-trip per instruction. 1 runs one scheduling domain over every
	// SM on the launching goroutine; any value > 1 runs each simulated SM
	// as its own domain on its own host goroutine, synchronizing only at
	// global-memory atomics and block admission. In parallel mode the
	// value is a *worker-slot budget*, not an SM partition: all SM
	// goroutines exist, but at most ParallelSMs of them execute
	// simultaneously, and slots migrate from gate-blocked or finished SMs
	// to SMs with ready work. Setting it above NumSMs is therefore
	// harmless, and a value below NumSMs still drives every SM. Zero
	// defaults to runtime.NumCPU(). Results and stats are bit-identical
	// across all settings; launches that attach a non-parallel-safe tracer
	// (see ParallelTracer), a fault-injection plan, or an OnProgress
	// callback fall back to the sequential loop (recorded in
	// LaunchStats.SequentialFallback). No block is admitted after an abort
	// in either mode; a failed sequential launch is deterministic, while a
	// failed parallel launch's partial stats depend on host timing.
	ParallelSMs int

	// Sanitize runs every launch under the attached sanitizer (see
	// Device.SetSanitizer): racecheck/memcheck/synccheck hooks observe each
	// memory access and barrier. Sanitized launches are forced onto the
	// sequential event loop (LaunchStats.SequentialFallback = "sanitizer");
	// simulated cycles and all other stats are unchanged. Without an
	// attached sanitizer the flag is inert. Per-launch opt-in is
	// LaunchOpts.Sanitize.
	Sanitize bool

	// MaxCycles aborts any single kernel launch whose simulated time exceeds
	// it, turning accidental livelocks (e.g. spin-polling kernels) into
	// errors instead of hangs. Zero means the default.
	MaxCycles int64

	// ClockGHz converts cycles to wall-clock milliseconds in reports.
	ClockGHz float64
}

// DefaultConfig returns a GTX 275-class configuration.
func DefaultConfig() Config {
	return Config{
		NumSMs:              16,
		WarpWidth:           32,
		MaxWarpsPerSM:       32,
		MaxBlocksPerSM:      8,
		ALULatency:          4,
		DRAMLatency:         400,
		MemPipeCyclesPerTxn: 4,
		SegmentBytes:        128,
		AtomicExtraLatency:  16,
		SharedLatency:       2,
		SharedBanks:         16,
		MaxCycles:           5_000_000_000,
		ClockGHz:            1.4,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("simt: NumSMs = %d, need > 0", c.NumSMs)
	case c.WarpWidth <= 0 || c.WarpWidth > 64:
		return fmt.Errorf("simt: WarpWidth = %d, need in (0,64]", c.WarpWidth)
	case c.WarpWidth&(c.WarpWidth-1) != 0:
		return fmt.Errorf("simt: WarpWidth = %d, need a power of two", c.WarpWidth)
	case c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("simt: MaxWarpsPerSM = %d, need > 0", c.MaxWarpsPerSM)
	case c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("simt: MaxBlocksPerSM = %d, need > 0", c.MaxBlocksPerSM)
	case c.ALULatency < 0 || c.DRAMLatency < 0 || c.MemPipeCyclesPerTxn < 0:
		return fmt.Errorf("simt: negative latency in config")
	case c.AtomicExtraLatency < 0 || c.SharedLatency < 0:
		return fmt.Errorf("simt: negative latency in config")
	case c.SegmentBytes <= 0 || c.SegmentBytes&(c.SegmentBytes-1) != 0:
		return fmt.Errorf("simt: SegmentBytes = %d, need a positive power of two", c.SegmentBytes)
	case c.SharedBanks <= 0:
		return fmt.Errorf("simt: SharedBanks = %d, need > 0", c.SharedBanks)
	case c.CacheLines < 0 || c.CacheWays < 0 || c.CacheHitLatency < 0:
		return fmt.Errorf("simt: negative cache parameter in config")
	case c.SchedulerPolicy != "" && c.SchedulerPolicy != "gto" && c.SchedulerPolicy != "lrr":
		return fmt.Errorf("simt: unknown scheduler policy %q (want gto or lrr)", c.SchedulerPolicy)
	case c.ParallelSMs < 0:
		return fmt.Errorf("simt: ParallelSMs = %d, need >= 0 (0 = NumCPU)", c.ParallelSMs)
	case c.ClockGHz <= 0:
		return fmt.Errorf("simt: ClockGHz = %f, need > 0", c.ClockGHz)
	}
	return nil
}

// withDefaults fills in zero-value knobs.
func (c Config) withDefaults() Config {
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultConfig().MaxCycles
	}
	if c.SchedulerPolicy == "" {
		c.SchedulerPolicy = "gto"
	}
	if c.ParallelSMs == 0 {
		c.ParallelSMs = runtime.NumCPU()
	}
	if c.CacheLines > 0 {
		if c.CacheWays == 0 {
			c.CacheWays = 4
		}
		if c.CacheHitLatency == 0 {
			c.CacheHitLatency = 40
		}
	}
	return c
}

// LaunchConfig describes one kernel launch's grid.
type LaunchConfig struct {
	// Blocks is the number of thread blocks in the grid.
	Blocks int
	// ThreadsPerBlock is the block size; it need not be a multiple of the
	// warp width (the tail warp runs partially masked).
	ThreadsPerBlock int
}

// Validate reports the first problem with the launch shape.
func (lc LaunchConfig) Validate(cfg Config) error {
	if lc.Blocks <= 0 {
		return fmt.Errorf("simt: launch needs > 0 blocks, got %d", lc.Blocks)
	}
	if lc.ThreadsPerBlock <= 0 {
		return fmt.Errorf("simt: launch needs > 0 threads per block, got %d", lc.ThreadsPerBlock)
	}
	warpsPerBlock := (lc.ThreadsPerBlock + cfg.WarpWidth - 1) / cfg.WarpWidth
	if warpsPerBlock > cfg.MaxWarpsPerSM {
		return fmt.Errorf("simt: block needs %d warps but an SM only holds %d",
			warpsPerBlock, cfg.MaxWarpsPerSM)
	}
	return nil
}

// Grid1D returns a launch covering at least n threads with the given block
// size (the standard CUDA ceil-div launch shape).
func Grid1D(n, threadsPerBlock int) LaunchConfig {
	if threadsPerBlock <= 0 {
		threadsPerBlock = 128
	}
	blocks := (n + threadsPerBlock - 1) / threadsPerBlock
	if blocks == 0 {
		blocks = 1
	}
	return LaunchConfig{Blocks: blocks, ThreadsPerBlock: threadsPerBlock}
}
