package simt

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// runAheadGoldenPath pins the outcome of runAheadKernel: LaunchStats and
// final memory.
const runAheadGoldenPath = "testdata/runahead_golden.json"

// runAheadRuns are the ALU run lengths between memory ops, chosen by global
// warp id: none, one, and D−1, D and D+1 for the queue depth D (queueDepth,
// 16) — the runs that fit the queue, fill it exactly and overflow it by one.
// The golden was produced by the scheduler that took one step per
// instruction, so these stay literals.
var runAheadRuns = []int{0, 1, 15, 16, 17}

// runAheadKernel runs every one-instruction ALU-class primitive in runs of
// runAheadRuns between global loads, stores, atomics, shared accesses and
// barriers, part of it under a divergent mask, on a device with a read-only
// cache, so ALU runs interleave with other warps' cache lookups, cache
// invalidations and atomics.
func runAheadKernel(data, hist *BufI32, acc *BufF32) Kernel {
	return func(w *WarpCtx) {
		k := runAheadRuns[w.GlobalWarpID()%len(runAheadRuns)]
		gtid := w.GlobalThreadIDs()
		n := int32(data.Len())
		idx := w.VecI32()
		v := w.VecI32()
		sum := w.VecI32()
		var ballot uint64
		var lane0 int32
		alu := func() {
			for i := 0; i < k; i++ {
				switch i % 8 {
				case 0:
					w.Apply(1, func(l int) { v[l] = v[l]*5 + 3 + int32(ballot&7) + lane0&3 })
				case 1:
					w.If(func(l int) bool { return v[l]%3 == 0 }, func() {}, func() {})
				case 2:
					w.AddConstI32(v, 7)
				case 3:
					ballot = w.Ballot(func(l int) bool { return v[l]%2 == 0 })
				case 4:
					w.ApplyReplicated(1, 4, func(g int) { v[4*g] ^= int32(g) })
				case 5:
					w.GroupReduceAddI32(2, v, sum)
				case 6:
					w.While(func(l int) bool { return false }, func() {})
				case 7:
					lane0 = w.BroadcastI32(v, 0)
				}
			}
		}
		w.Apply(1, func(l int) { idx[l] = (gtid[l] * 7) % n })
		sh := w.SharedI32("runahead", w.BlockDim())
		tib := w.VecI32()
		w.Apply(1, func(l int) { tib[l] = int32(w.WarpInBlock()*w.Width() + l) })
		for round := 0; round < 3; round++ {
			w.LoadI32(data, idx, v)
			alu()
			w.StoreI32(data, idx, v)
			bucket := w.VecI32()
			w.Apply(1, func(l int) { bucket[l] = ((v[l] % 16) + 16) % 16 })
			fv := w.VecF32()
			w.Apply(1, func(l int) { fv[l] = float32(v[l]%8) * 0.25 })
			w.AtomicAddI32(hist, bucket, w.ConstI32(1), nil)
			alu()
			w.AtomicAddF32(acc, bucket, fv, nil)
			w.StoreSharedI32(sh, tib, v)
			alu()
			// Every warp runs the same rounds and each If above has
			// reconverged, so all warps of the block reach this barrier.
			w.SyncThreads() //kernelcheck:ignore barrier
			w.LoadSharedI32(sh, tib, sum)
			w.If(func(l int) bool { return v[l]%4 != 0 }, func() {
				alu()
				w.StoreI32(data, idx, sum)
			}, nil)
			w.Apply(1, func(l int) { idx[l] = (idx[l] + sum[l]&63 + 1) % n })
		}
		alu()
	}
}

// readOnlyKernel loads never-written buffers (ro, rof) in runs of
// runAheadRuns ALU instructions between loads, stores and atomics to
// mutable buffers: scattered gathers back to back (one segment per lane),
// coalesced, replicated and float gathers, and a gather under a divergent
// mask. Every loaded value feeds a store, so a load that read at the wrong
// moment would show in memory.
func readOnlyKernel(ro, data, hist *BufI32, rof, acc *BufF32) Kernel {
	return func(w *WarpCtx) {
		k := runAheadRuns[w.GlobalWarpID()%len(runAheadRuns)]
		gtid := w.GlobalThreadIDs()
		n, m := int32(data.Len()), int32(ro.Len())
		idx, sc, v, r := w.VecI32(), w.VecI32(), w.VecI32(), w.VecI32()
		bucket := w.VecI32()
		f := w.VecF32()
		alu := func() {
			for i := 0; i < k; i++ {
				switch i % 4 {
				case 0:
					w.Apply(1, func(l int) { v[l] = v[l]*5 + r[l]&15 })
				case 1:
					w.If(func(l int) bool { return r[l]%3 == 0 }, func() {}, func() {})
				case 2:
					w.Apply(1, func(l int) { sc[l] = (sc[l] + 33) % m })
				case 3:
					w.AddConstI32(v, 3)
				}
			}
		}
		w.Apply(1, func(l int) { idx[l] = (gtid[l] * 7) % n; sc[l] = (gtid[l] * 37) % m })
		for round := 0; round < 3; round++ {
			w.LoadI32(ro, sc, r)
			w.Apply(1, func(l int) { sc[l] = (sc[l] + r[l]*41 + 1) % m })
			w.LoadI32(ro, sc, r)
			w.LoadF32(rof, sc, f)
			alu()
			w.LoadI32(data, idx, v)
			w.Apply(1, func(l int) { v[l] += r[l] + int32(f[l]) })
			w.StoreI32(data, idx, v)
			w.LoadI32Replicated(4, ro, idx, r)
			w.Apply(1, func(l int) { bucket[l] = (v[l] + r[l]) & 15 })
			w.AtomicAddI32(hist, bucket, r, nil)
			alu()
			w.LoadI32(ro, idx, r)
			w.AtomicAddF32(acc, bucket, f, nil)
			w.If(func(l int) bool { return r[l]%2 == 0 }, func() {
				w.LoadI32(ro, sc, r)
				alu()
				w.StoreI32(data, idx, r)
			}, nil)
			w.Apply(1, func(l int) { idx[l] = (idx[l] + r[l]&63 + 1) % n })
		}
		alu()
	}
}

// readOnlyDevice returns a device with a read-only cache and the buffers
// readOnlyKernel runs on, ro and rof frozen.
func readOnlyDevice(parallelSMs int) (d *Device, ro, data, hist *BufI32, rof, acc *BufF32) {
	cfg := testConfig()
	cfg.ParallelSMs = parallelSMs
	cfg.CacheLines = 16
	cfg.CacheWays = 2
	d = MustNewDevice(cfg)
	initRO := make([]int32, 4096)
	initF := make([]float32, len(initRO))
	for i := range initRO {
		initRO[i] = int32(i*2654435761) % 4093
		if initRO[i] < 0 {
			initRO[i] += 4093
		}
		initF[i] = float32(initRO[i]%16) * 0.5
	}
	initData := make([]int32, 1024)
	for i := range initData {
		initData[i] = int32(i*40503) % 127
	}
	ro = d.UploadI32("ro", initRO).Freeze()
	rof = d.UploadF32("rof", initF).Freeze()
	data = d.UploadI32("data", initData)
	hist = d.AllocI32("hist", 16)
	acc = d.AllocF32("acc", 16)
	return d, ro, data, hist, rof, acc
}

// readOnlyGrid is readOnlyKernel's launch shape.
var readOnlyGrid = LaunchConfig{Blocks: 20, ThreadsPerBlock: 64}

// runAheadRecord is a golden kernel's observable outcome.
type runAheadRecord struct {
	Stats *LaunchStats
	Data  []int32
	Hist  []int32
	Acc   []float32
}

func runRunAhead(t *testing.T, parallelSMs int) runAheadRecord {
	t.Helper()
	cfg := testConfig()
	cfg.ParallelSMs = parallelSMs
	cfg.CacheLines = 16
	cfg.CacheWays = 2
	d := MustNewDevice(cfg)
	init := make([]int32, 1024)
	for i := range init {
		init[i] = int32(i*2654435761) % 113
	}
	data := d.UploadI32("data", init)
	hist := d.AllocI32("hist", 16)
	acc := d.AllocF32("acc", 16)
	stats, err := d.LaunchWith(LaunchConfig{Blocks: 20, ThreadsPerBlock: 64},
		LaunchOpts{Profile: true}, runAheadKernel(data, hist, acc))
	if err != nil {
		t.Fatal(err)
	}
	return newRunAheadRecord(stats, data, hist, acc)
}

func runReadOnly(t *testing.T, parallelSMs int) runAheadRecord {
	t.Helper()
	d, ro, data, hist, rof, acc := readOnlyDevice(parallelSMs)
	stats, err := d.LaunchWith(readOnlyGrid, LaunchOpts{Profile: true}, readOnlyKernel(ro, data, hist, rof, acc))
	if err != nil {
		t.Fatal(err)
	}
	return newRunAheadRecord(stats, data, hist, acc)
}

func newRunAheadRecord(stats *LaunchStats, data, hist *BufI32, acc *BufF32) runAheadRecord {
	// The recorded host mode is the one legitimate difference between modes.
	stats.ParallelSMs = 1
	return runAheadRecord{
		Stats: stats,
		Data:  append([]int32(nil), data.Data()...),
		Hist:  append([]int32(nil), hist.Data()...),
		Acc:   append([]float32(nil), acc.Data()...),
	}
}

// TestRunAheadParallelGolden pins ALU runs that fit, fill and overflow the
// run-ahead queue, one golden line per kernel: runAheadKernel's, then
// readOnlyKernel's. LaunchStats (profile included) and memory must equal
// the values the one-step-per-instruction scheduler produced (for
// readOnlyKernel, with ro and rof plain uploads), in every host mode.
func TestRunAheadParallelGolden(t *testing.T) {
	for _, mode := range []int{1, 2, 8} {
		var got []byte
		for _, run := range []func(*testing.T, int) runAheadRecord{runRunAhead, runReadOnly} {
			line, err := json.Marshal(run(t, mode))
			if err != nil {
				t.Fatal(err)
			}
			got = append(append(got, line...), '\n')
		}
		if *updateAbortGolden {
			if err := os.WriteFile(runAheadGoldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", runAheadGoldenPath)
			return
		}
		want, err := os.ReadFile(runAheadGoldenPath)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update-abort-golden): %v", err)
		}
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		if len(gotLines) != len(wantLines) {
			t.Fatalf("ParallelSMs=%d: %d golden lines, run produced %d", mode, len(wantLines), len(gotLines))
		}
		for i := range gotLines {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("ParallelSMs=%d line %d differs from the golden:\n got: %s\nwant: %s", mode, i+1, gotLines[i], wantLines[i])
			}
		}
	}
}
