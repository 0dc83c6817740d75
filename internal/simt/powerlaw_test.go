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
// and an atomic so host-mode equivalence covers every cross-SM mechanism.
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

// runPowerLawDevice executes the imbalanced fixture in the given host mode
// and returns the device it launched on, the stats and the final memory.
func runPowerLawDevice(t *testing.T, parallelSMs int) (*Device, *LaunchStats, []int32, []int32) {
	t.Helper()
	cfg := testConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = parallelSMs
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

// TestPowerLawGridParallelEquivalence is the determinism guarantee on the
// imbalanced fixture: every ParallelSMs setting produces bit-identical
// memory contents and bit-identical merged LaunchStats. (Run under -race in
// CI: `make race` and `make racesched` cover this package.)
func TestPowerLawGridParallelEquivalence(t *testing.T) {
	_, refStats, refData, refHist := runPowerLawDevice(t, 1)
	if refStats.ParallelSMs != 1 || refStats.SequentialFallback != "" {
		t.Fatalf("reference run: mode %d fallback %q", refStats.ParallelSMs, refStats.SequentialFallback)
	}
	for _, mode := range []int{2, 8} {
		_, stats, data, hist := runPowerLawDevice(t, mode)
		norm := *stats
		norm.ParallelSMs = refStats.ParallelSMs
		if !reflect.DeepEqual(&norm, refStats) {
			t.Errorf("ParallelSMs=%d stats differ from sequential:\n seq: %+v\n par: %+v",
				mode, refStats, stats)
		}
		if !reflect.DeepEqual(data, refData) {
			t.Errorf("ParallelSMs=%d data buffer differs", mode)
		}
		if !reflect.DeepEqual(hist, refHist) {
			t.Errorf("ParallelSMs=%d histogram differs: seq %v par %v", mode, refHist, hist)
		}
	}
}
