package simt

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// mixedKernel is a deterministic workload that exercises every cross-SM
// mechanism at once: divergent control flow, plain loads/stores, I32 and F32
// atomics (with old-value readback), shared memory, and a block barrier.
func mixedKernel(data, hist, olds *BufI32, acc *BufF32) Kernel {
	return func(w *WarpCtx) {
		gtid := w.GlobalThreadIDs()
		n := int32(data.Len())
		idx := w.VecI32()
		w.Apply(1, func(l int) { idx[l] = gtid[l] % n })
		v := w.VecI32()
		w.LoadI32(data, idx, v)
		w.If(func(l int) bool { return v[l]%2 == 0 }, func() {
			w.Apply(1, func(l int) { v[l] = v[l]*3 + 1 })
		}, func() {
			w.Apply(1, func(l int) { v[l] = v[l] / 2 })
		})
		sh := w.SharedI32("scratch", w.BlockDim())
		tib := w.VecI32()
		w.Apply(1, func(l int) { tib[l] = int32(w.WarpInBlock()*w.Width() + l) })
		w.StoreSharedI32(sh, tib, v)
		w.SyncThreads()
		w.LoadSharedI32(sh, tib, v)
		bucket := w.VecI32()
		w.Apply(1, func(l int) { bucket[l] = ((v[l] % 16) + 16) % 16 })
		old := w.VecI32()
		w.AtomicAddI32(hist, bucket, w.ConstI32(1), old)
		w.StoreI32(olds, idx, old)
		fdelta := w.VecF32()
		w.Apply(1, func(l int) { fdelta[l] = float32(bucket[l]) * 0.5 })
		w.AtomicAddF32(acc, bucket, fdelta, nil)
		w.StoreI32(data, idx, v)
	}
}

// runMixed executes the mixed workload on a fresh device with the given host
// mode and returns the stats plus final buffer contents.
func runMixed(t *testing.T, parallelSMs int) (*LaunchStats, []int32, []int32, []int32, []float32) {
	t.Helper()
	_, stats, data, hist, olds, acc := runMixedDevice(t, parallelSMs)
	return stats, data, hist, olds, acc
}

// runMixedDevice is runMixed that also returns the device it launched on.
func runMixedDevice(t *testing.T, parallelSMs int) (*Device, *LaunchStats, []int32, []int32, []int32, []float32) {
	t.Helper()
	cfg := testConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = parallelSMs
	d := MustNewDevice(cfg)
	n := 4096
	init := make([]int32, n)
	for i := range init {
		init[i] = int32(i*2654435761) % 97
	}
	data := d.UploadI32("data", init)
	hist := d.AllocI32("hist", 16)
	olds := d.AllocI32("olds", n)
	acc := d.AllocF32("acc", 16)
	stats, err := d.Launch(Grid1D(n, 128), mixedKernel(data, hist, olds, acc))
	if err != nil {
		t.Fatal(err)
	}
	return d, stats,
		append([]int32(nil), data.Data()...),
		append([]int32(nil), hist.Data()...),
		append([]int32(nil), olds.Data()...),
		append([]float32(nil), acc.Data()...)
}

// TestParallelSequentialEquivalence is the tentpole guarantee: for every
// ParallelSMs setting the launch produces bit-identical memory contents and
// bit-identical merged LaunchStats.
func TestParallelSequentialEquivalence(t *testing.T) {
	refStats, refData, refHist, refOlds, refAcc := runMixed(t, 1)
	if refStats.ParallelSMs != 1 || refStats.SequentialFallback != "" {
		t.Fatalf("reference run: mode %d fallback %q", refStats.ParallelSMs, refStats.SequentialFallback)
	}
	for _, mode := range []int{2, 4, 8} {
		stats, data, hist, olds, acc := runMixed(t, mode)
		if stats.ParallelSMs != mode || stats.SequentialFallback != "" {
			t.Fatalf("ParallelSMs=%d run recorded mode %d fallback %q", mode, stats.ParallelSMs, stats.SequentialFallback)
		}
		// The recorded host mode is the one legitimate difference.
		norm := *stats
		norm.ParallelSMs = refStats.ParallelSMs
		if !reflect.DeepEqual(&norm, refStats) {
			t.Errorf("ParallelSMs=%d stats differ from sequential:\n seq: %+v\n par: %+v", mode, refStats, stats)
		}
		if !reflect.DeepEqual(data, refData) {
			t.Errorf("ParallelSMs=%d data buffer differs", mode)
		}
		if !reflect.DeepEqual(hist, refHist) {
			t.Errorf("ParallelSMs=%d histogram differs: seq %v par %v", mode, refHist, hist)
		}
		if !reflect.DeepEqual(olds, refOlds) {
			t.Errorf("ParallelSMs=%d atomic old values differ", mode)
		}
		if !reflect.DeepEqual(acc, refAcc) {
			t.Errorf("ParallelSMs=%d float accumulator differs: seq %v par %v", mode, refAcc, acc)
		}
	}
}

// TestParallelRunToRunDeterminism re-runs the parallel mode against itself:
// goroutine scheduling must not leak into results.
func TestParallelRunToRunDeterminism(t *testing.T) {
	aStats, aData, aHist, aOlds, aAcc := runMixed(t, 8)
	for i := 0; i < 3; i++ {
		bStats, bData, bHist, bOlds, bAcc := runMixed(t, 8)
		if !reflect.DeepEqual(aStats, bStats) {
			t.Fatalf("run %d: stats differ:\n a: %+v\n b: %+v", i, aStats, bStats)
		}
		if !reflect.DeepEqual(aData, bData) || !reflect.DeepEqual(aHist, bHist) ||
			!reflect.DeepEqual(aOlds, bOlds) || !reflect.DeepEqual(aAcc, bAcc) {
			t.Fatalf("run %d: memory contents differ", i)
		}
	}
}

// TestParallelFallbackReasons verifies that launches which attach
// sequential-only supervision run on the sequential loop and record why.
func TestParallelFallbackReasons(t *testing.T) {
	newDev := func() *Device {
		cfg := testConfig()
		cfg.ParallelSMs = 4
		return MustNewDevice(cfg)
	}
	k := func(w *WarpCtx) { w.Apply(1, func(l int) {}) }
	lc := LaunchConfig{Blocks: 4, ThreadsPerBlock: 64}

	d := newDev()
	d.SetTracer(&CountTracer{})
	stats, err := d.Launch(lc, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelSMs != 1 || stats.SequentialFallback != "tracer" {
		t.Errorf("tracer launch: mode %d fallback %q", stats.ParallelSMs, stats.SequentialFallback)
	}

	d = newDev()
	stats, err = d.LaunchWith(lc, LaunchOpts{OnProgress: func(int64) error { return nil }}, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelSMs != 1 || stats.SequentialFallback != "on-progress" {
		t.Errorf("progress launch: mode %d fallback %q", stats.ParallelSMs, stats.SequentialFallback)
	}

	d = newDev()
	d.SetFaultPlan(&FaultPlan{Seed: 7, AbortEvery: 1, MaxFaults: 1})
	stats, err = d.Launch(lc, k)
	if err == nil && stats.SequentialFallback != "fault-injection" {
		t.Errorf("injected launch: fallback %q", stats.SequentialFallback)
	}
	if stats != nil && stats.ParallelSMs != 1 {
		t.Errorf("injected launch: mode %d", stats.ParallelSMs)
	}
}

// TestWatchdogClampsTimeoutCycles pins the satellite bugfix: the watchdog
// only observes the clock at step granularity, so one long-latency op can
// overshoot MaxCycles by its whole latency. The reported cycles must be
// clamped to the budget in both host modes.
func TestWatchdogClampsTimeoutCycles(t *testing.T) {
	for _, mode := range []int{1, 4} {
		cfg := testConfig()
		cfg.DRAMLatency = 10_000_000
		cfg.MaxCycles = 1_000
		cfg.ParallelSMs = mode
		d := MustNewDevice(cfg)
		buf := d.AllocI32("buf", 64)
		k := func(w *WarpCtx) {
			v := w.VecI32()
			w.LoadI32(buf, w.LaneIDs(), v)
			w.Apply(1, func(l int) { v[l]++ })
		}
		stats, err := d.Launch(LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}, k)
		if !errors.Is(err, ErrLaunchTimeout) {
			t.Fatalf("ParallelSMs=%d: err = %v, want ErrLaunchTimeout", mode, err)
		}
		if stats.Cycles > cfg.MaxCycles {
			t.Errorf("ParallelSMs=%d: reported Cycles=%d overshoots MaxCycles=%d", mode, stats.Cycles, cfg.MaxCycles)
		}
		for i, f := range stats.SMFinish {
			if f > cfg.MaxCycles {
				t.Errorf("ParallelSMs=%d: SMFinish[%d]=%d overshoots MaxCycles=%d", mode, i, f, cfg.MaxCycles)
			}
		}
	}
}

// TestParallelAbortDrainsWarps: a kernel fault under parallel execution must
// return a typed error and leave no warp or SM goroutines behind.
func TestParallelAbortDrainsWarps(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.ParallelSMs = 4
	d := MustNewDevice(cfg)
	buf := d.AllocI32("buf", 8)
	k := func(w *WarpCtx) {
		idx := w.VecI32()
		if w.BlockID() == 5 {
			w.Apply(1, func(l int) { idx[l] = 1 << 20 }) // out of range
		}
		v := w.VecI32()
		w.LoadI32(buf, idx, v)
		w.AtomicAddI32(buf, idx, w.ConstI32(1), nil)
	}
	_, err := d.Launch(LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}, k)
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("err = %v, want *KernelFault", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestStatsAddMismatchedWarpWidth pins the satellite bugfix: totaling stats
// from devices with different warp widths must not corrupt the utilization
// denominators by silently adopting one width for both.
func TestStatsAddMismatchedWarpWidth(t *testing.T) {
	// Two fully-utilized launches: 100 instructions at width 32, 100 at
	// width 16 (legacy stats without LaneSlots recorded).
	wide := &LaunchStats{WarpWidth: 32, Instructions: 100, ActiveLaneOps: 3200, UsefulLaneOps: 3200}
	narrow := &LaunchStats{WarpWidth: 16, Instructions: 100, ActiveLaneOps: 1600, UsefulLaneOps: 1600}
	wide.Add(narrow)
	if got := wide.SIMDUtilization(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("SIMDUtilization after mixed-width Add = %v, want 1.0", got)
	}
	if got := wide.UsefulUtilization(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("UsefulUtilization after mixed-width Add = %v, want 1.0", got)
	}
	if wide.LaneSlots != 4800 {
		t.Errorf("LaneSlots = %d, want 4800", wide.LaneSlots)
	}
}

// TestWarpImbalanceCVLargeNearEqual pins the satellite bugfix: the old
// E[x^2]-E[x]^2 variance cancels catastrophically for large, nearly equal
// busy-cycle counts and reported zero (or NaN) spread.
func TestWarpImbalanceCVLargeNearEqual(t *testing.T) {
	const base = int64(1_000_000_000_000_000) // 1e15 cycles
	s := &LaunchStats{WarpWidth: 32, WarpBusy: []int64{base, base + 2, base - 2}}
	got := s.WarpImbalanceCV()
	want := math.Sqrt(8.0/3.0) / float64(base)
	if math.IsNaN(got) || got == 0 {
		t.Fatalf("CV = %v: catastrophic cancellation", got)
	}
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Errorf("CV = %g, want %g (rel err %g)", got, want, rel)
	}
}

// TestLaneSlotsRecorded: launches record the exact utilization denominator.
func TestLaneSlotsRecorded(t *testing.T) {
	d := newTestDevice(t)
	stats, err := d.Launch(LaunchConfig{Blocks: 2, ThreadsPerBlock: 64},
		func(w *WarpCtx) { w.Apply(3, func(l int) {}) })
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.Instructions * int64(stats.WarpWidth); stats.LaneSlots != want {
		t.Errorf("LaneSlots = %d, want Instructions*WarpWidth = %d", stats.LaneSlots, want)
	}
}
