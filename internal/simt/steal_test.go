package simt

import (
	"reflect"
	"testing"
)

// powerLawGridKernel is the imbalanced-grid fixture: per-block cost follows a
// Zipf-like curve of the block id (block 0 spins ~maxSpin iterations, block b
// spins ~maxSpin/(b+1)), the pathology a static breadth-first block
// distributor serializes on — the first-admitted stripe of blocks is
// systematically the heaviest. The body mixes ALU spin, global loads/stores,
// and an atomic so stealing equivalence covers every cross-SM mechanism.
func powerLawGridKernel(data, hist *BufI32, maxSpin int32) Kernel {
	return func(w *WarpCtx) {
		spin := maxSpin / (int32(w.BlockID()) + 1)
		gtid := w.GlobalThreadIDs()
		n := int32(data.Len())
		idx := w.VecI32()
		w.Apply(1, func(l int) { idx[l] = gtid[l] % n })
		v := w.VecI32()
		w.LoadI32(data, idx, v)
		i := w.ConstI32(0)
		w.While(func(l int) bool { return i[l] < spin }, func() {
			w.Apply(1, func(l int) { v[l] = v[l]*1664525 + 1013904223 })
			w.AddConstI32(i, 1)
		})
		bucket := w.VecI32()
		w.Apply(1, func(l int) { bucket[l] = ((v[l] % 16) + 16) % 16 })
		w.AtomicAddI32(hist, bucket, w.ConstI32(1), nil)
		w.StoreI32(data, idx, v)
	}
}

// runPowerLaw executes the imbalanced fixture with the given block schedule
// and host mode and returns the stats plus final memory.
func runPowerLaw(t *testing.T, schedule string, parallelSMs int) (*LaunchStats, []int32, []int32) {
	t.Helper()
	_, stats, data, hist := runPowerLawDevice(t, schedule, parallelSMs)
	return stats, data, hist
}

// runPowerLawDevice is runPowerLaw that also returns the device it launched
// on.
func runPowerLawDevice(t *testing.T, schedule string, parallelSMs int) (*Device, *LaunchStats, []int32, []int32) {
	t.Helper()
	cfg := testConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = parallelSMs
	cfg.BlockSchedule = schedule
	d := MustNewDevice(cfg)
	n := 2048
	init := make([]int32, n)
	for i := range init {
		init[i] = int32(i*2654435761) % 251
	}
	data := d.UploadI32("data", init)
	hist := d.AllocI32("hist", 16)
	stats, err := d.Launch(LaunchConfig{Blocks: 32, ThreadsPerBlock: 64},
		powerLawGridKernel(data, hist, 512))
	if err != nil {
		t.Fatal(err)
	}
	return d, stats,
		append([]int32(nil), data.Data()...),
		append([]int32(nil), hist.Data()...)
}

// TestStealEquivalenceAcrossHostModes is the stealing determinism guarantee:
// for both block schedules, every ParallelSMs setting produces bit-identical
// memory contents and bit-identical merged LaunchStats on the imbalanced
// fixture. (Run under -race in CI: `make race` covers this package.)
func TestStealEquivalenceAcrossHostModes(t *testing.T) {
	for _, schedule := range []string{"fifo", "steal"} {
		refStats, refData, refHist := runPowerLaw(t, schedule, 1)
		if refStats.ParallelSMs != 1 || refStats.SequentialFallback != "" {
			t.Fatalf("%s reference run: mode %d fallback %q",
				schedule, refStats.ParallelSMs, refStats.SequentialFallback)
		}
		for _, mode := range []int{2, 8} {
			stats, data, hist := runPowerLaw(t, schedule, mode)
			norm := *stats
			norm.ParallelSMs = refStats.ParallelSMs
			if !reflect.DeepEqual(&norm, refStats) {
				t.Errorf("%s ParallelSMs=%d stats differ from sequential:\n seq: %+v\n par: %+v",
					schedule, mode, refStats, stats)
			}
			if !reflect.DeepEqual(data, refData) {
				t.Errorf("%s ParallelSMs=%d data buffer differs", schedule, mode)
			}
			if !reflect.DeepEqual(hist, refHist) {
				t.Errorf("%s ParallelSMs=%d histogram differs: seq %v par %v",
					schedule, mode, refHist, hist)
			}
		}
	}
}

// TestStealRunToRunDeterminism re-runs the stealing schedule at ParallelSMs=8
// against itself: host goroutine timing must not leak into the block→SM
// assignment.
func TestStealRunToRunDeterminism(t *testing.T) {
	aStats, aData, aHist := runPowerLaw(t, "steal", 8)
	for i := 0; i < 3; i++ {
		bStats, bData, bHist := runPowerLaw(t, "steal", 8)
		if !reflect.DeepEqual(aStats, bStats) {
			t.Fatalf("run %d: stats differ:\n a: %+v\n b: %+v", i, aStats, bStats)
		}
		if !reflect.DeepEqual(aData, bData) || !reflect.DeepEqual(aHist, bHist) {
			t.Fatalf("run %d: memory contents differ", i)
		}
	}
}

// TestStealBalancesImbalancedGrid pins the point of the policy: on the
// power-law fixture the stealing distributor must finish the simulated
// launch with a tighter per-SM finish spread (and no later overall) than the
// eager FIFO distributor. Both runs are deterministic, so the comparison is
// stable.
func TestStealBalancesImbalancedGrid(t *testing.T) {
	fifoStats, _, _ := runPowerLaw(t, "fifo", 1)
	stealStats, _, _ := runPowerLaw(t, "steal", 1)
	if f, s := fifoStats.SMFinishCV(), stealStats.SMFinishCV(); s >= f {
		t.Errorf("SMFinishCV: steal %v >= fifo %v — stealing did not tighten the finish spread", s, f)
	}
	// Depth-1 dispatch trades a little cross-block latency hiding for
	// balance, so simulated cycles may tick up slightly; bound the cost.
	if lim := fifoStats.Cycles + fifoStats.Cycles/10; stealStats.Cycles > lim {
		t.Errorf("Cycles: steal %d > fifo %d + 10%% on the imbalanced grid", stealStats.Cycles, fifoStats.Cycles)
	}
}

// TestStealConfigValidation covers the new knobs.
func TestStealConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSchedule = "lifo"
	if err := cfg.Validate(); err == nil {
		t.Error("BlockSchedule=lifo validated")
	}
	cfg = DefaultConfig()
	cfg.StealDepth = -1
	if err := cfg.Validate(); err == nil {
		t.Error("StealDepth=-1 validated")
	}
	cfg = DefaultConfig()
	cfg.BlockSchedule = "steal"
	if err := cfg.Validate(); err != nil {
		t.Errorf("BlockSchedule=steal rejected: %v", err)
	}
}
