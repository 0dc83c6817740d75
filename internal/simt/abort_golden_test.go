package simt

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

var updateAbortGolden = flag.Bool("update-abort-golden", false,
	"rewrite testdata/abort_golden.json and testdata/runahead_golden.json from the current scheduler instead of comparing")

// abortGoldenPath pins the observable outcome of failed sequential launches.
const abortGoldenPath = "testdata/abort_golden.json"

// abortRecord is one launch's observable outcome: the error text, the
// partial LaunchStats it returned and the device totals afterwards.
type abortRecord struct {
	Name   string
	Err    string
	Stats  *LaunchStats
	Totals LaunchStats
}

// abortGrid is the imbalanced power-law grid every abort scenario runs on:
// 128 blocks of 64 threads on 8 SMs, always on the sequential host loop.
func abortGrid() (*Device, Kernel, LaunchConfig) {
	cfg := testConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = 1
	d := MustNewDevice(cfg)
	init := make([]int32, 2048)
	for i := range init {
		init[i] = int32(i*2654435761) % 251
	}
	data := d.UploadI32("data", init)
	hist := d.AllocI32("hist", 16)
	return d, powerLawGridKernel(data, hist, 2048), LaunchConfig{Blocks: 128, ThreadsPerBlock: 64}
}

func recordLaunch(name string, d *Device, stats *LaunchStats, err error) abortRecord {
	r := abortRecord{Name: name, Stats: stats, Totals: d.Totals()}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// abortScenarios runs every failing sequential launch the golden pins.
func abortScenarios() []abortRecord {
	// The grid scenarios' names keep "fifo" so their golden rows stay
	// byte-identical.
	var recs []abortRecord
	for seed := uint64(1); seed <= 8; seed++ {
		d, k, lc := abortGrid()
		d.SetFaultPlan(&FaultPlan{Seed: seed, AbortEvery: 1})
		stats, err := d.Launch(lc, k)
		recs = append(recs, recordLaunch(fmt.Sprintf("inject/fifo/seed%d", seed), d, stats, err))
	}
	for _, budget := range []int64{3_000, 9_000, 20_000} {
		d, k, lc := abortGrid()
		stats, err := d.LaunchWith(lc, LaunchOpts{MaxCycles: budget}, k)
		recs = append(recs, recordLaunch(fmt.Sprintf("maxcycles/fifo/%d", budget), d, stats, err))
	}
	d, k, lc := abortGrid()
	stop := errors.New("stop requested")
	stats, err := d.LaunchWith(lc, LaunchOpts{
		ProgressEvery: 1000,
		OnProgress: func(cycle int64) error {
			if cycle >= 6000 {
				return stop
			}
			return nil
		},
	}, k)
	recs = append(recs, recordLaunch("progress/fifo", d, stats, err))

	// The out-of-range fault of TestParallelAbortDrainsWarps, run sequentially.
	cfg := testConfig()
	cfg.ParallelSMs = 1
	d = MustNewDevice(cfg)
	buf := d.AllocI32("buf", 8)
	stats, err = d.Launch(LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}, func(w *WarpCtx) {
		idx := w.VecI32()
		if w.BlockID() == 5 {
			w.Apply(1, func(l int) { idx[l] = 1 << 20 })
		}
		v := w.VecI32()
		w.LoadI32(buf, idx, v)
		w.AtomicAddI32(buf, idx, w.ConstI32(1), nil)
	})
	recs = append(recs, recordLaunch("oob", d, stats, err))

	// Device loss across three launches: the first finishes under the
	// cumulative cycle budget, the second crosses it mid-flight, the third
	// is refused outright.
	d, k, lc = abortGrid()
	d.SetFaultPlan(&FaultPlan{Seed: 1, DeviceLossAfterCycles: 50_000})
	for i := 1; i <= 3; i++ {
		stats, err := d.Launch(lc, k)
		recs = append(recs, recordLaunch(fmt.Sprintf("loss/launch%d", i), d, stats, err))
	}

	// A panic inside an Apply closure after a run of ALU-only instructions,
	// while other warps run the same ALU run or have returned.
	cfg = testConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = 1
	d = MustNewDevice(cfg)
	buf = d.AllocI32("buf", 2048)
	stats, err = d.Launch(LaunchConfig{Blocks: 32, ThreadsPerBlock: 64}, func(w *WarpCtx) {
		v := w.VecI32()
		w.LoadI32(buf, w.GlobalThreadIDs(), v)
		if w.BlockID()%3 == 0 {
			return
		}
		for i := 0; i < 24; i++ {
			w.Apply(1, func(l int) {
				if w.GlobalWarpID() == 21 && i == 19 && l == 5 {
					panic("kernel bug")
				}
				v[l] += int32(i)
			})
		}
		w.StoreI32(buf, w.GlobalThreadIDs(), v)
	})
	recs = append(recs, recordLaunch("panic-after-alu-run", d, stats, err))

	// An ALU-only spin under a cycle budget: every fourth block never
	// leaves its loop, the others return after a short one.
	d = MustNewDevice(cfg)
	stats, err = d.LaunchWith(LaunchConfig{Blocks: 32, ThreadsPerBlock: 64}, LaunchOpts{MaxCycles: 4_000}, func(w *WarpCtx) {
		n := int32(40)
		if w.BlockID()%4 == 0 {
			n = math.MaxInt32
		}
		i := w.ConstI32(0)
		w.While(func(l int) bool { return i[l] < n }, func() {
			w.AddConstI32(i, 1)
		})
	})
	recs = append(recs, recordLaunch("maxcycles/alu-spin", d, stats, err))

	// readOnlyKernel: loads from never-written buffers between ALU runs,
	// stores and atomics, stopped by an injected abort and by a cycle budget.
	for _, seed := range []uint64{3, 5} {
		d, ro, data, hist, rof, acc := readOnlyDevice(1)
		d.SetFaultPlan(&FaultPlan{Seed: seed, AbortEvery: 1})
		stats, err := d.Launch(readOnlyGrid, readOnlyKernel(ro, data, hist, rof, acc))
		recs = append(recs, recordLaunch(fmt.Sprintf("readonly/inject/seed%d", seed), d, stats, err))
	}
	d, ro, data, hist, rof, acc := readOnlyDevice(1)
	stats, err = d.LaunchWith(readOnlyGrid, LaunchOpts{MaxCycles: 12_000}, readOnlyKernel(ro, data, hist, rof, acc))
	recs = append(recs, recordLaunch("readonly/maxcycles/12000", d, stats, err))
	return recs
}

// encodeAbortRecords writes one record per line so a diff names the
// scenario that moved.
func encodeAbortRecords(recs []abortRecord) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		if i < len(recs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

// TestAbortGolden pins failed sequential launches: the error, the partial
// LaunchStats and the device totals of injected aborts, watchdog timeouts,
// an OnProgress cancellation, a kernel fault and a device loss must not
// move under a scheduler refactor. Regenerate only for an intended change,
// with -update-abort-golden.
func TestAbortGolden(t *testing.T) {
	recs := abortScenarios()
	for _, r := range recs {
		if r.Err == "" && r.Name != "loss/launch1" {
			t.Errorf("%s: launch succeeded; every scenario but the first device-loss launch must fail", r.Name)
		}
	}
	got, err := encodeAbortRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if *updateAbortGolden {
		if err := os.WriteFile(abortGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", abortGoldenPath, len(recs))
		return
	}
	want, err := os.ReadFile(abortGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-abort-golden): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRecs []abortRecord
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(wantRecs) != len(recs) {
		t.Fatalf("golden has %d scenarios, run produced %d", len(wantRecs), len(recs))
	}
	for i, r := range recs {
		g, _ := json.Marshal(r)
		w, _ := json.Marshal(wantRecs[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the golden:\n got: %s\nwant: %s", r.Name, g, w)
		}
	}
}

// TestNoAdmissionAfterAbort: once a launch aborts no block is admitted, in
// either host mode. Block 1 faults at cycle 10 while SM 0 already has room
// (its first blocks retired at cycle 405), so a scheduler that kept admitting
// after the abort would count all 64 blocks as launched.
func TestNoAdmissionAfterAbort(t *testing.T) {
	cfg := testConfig()
	cfg.ParallelSMs = 1
	d := MustNewDevice(cfg)
	buf := d.AllocI32("buf", 64)
	stats, err := d.Launch(LaunchConfig{Blocks: 64, ThreadsPerBlock: 32}, func(w *WarpCtx) {
		v := w.VecI32()
		if w.BlockID() == 1 {
			w.Apply(1, func(l int) {})
			w.Apply(1, func(l int) {})
			w.LoadI32(buf, w.ConstI32(1<<20), v)
		}
		w.LoadI32(buf, w.LaneIDs(), v)
	})
	var kf *KernelFault
	if !errors.As(err, &kf) || kf.Block != 1 || kf.Cycle != 10 {
		t.Fatalf("err = %v, want an out-of-range fault in block 1 at cycle 10", err)
	}
	if stats.BlocksLaunched != 16 || stats.WarpsLaunched != 16 {
		t.Errorf("BlocksLaunched=%d WarpsLaunched=%d, want 16 and 16 (the blocks resident at the abort)",
			stats.BlocksLaunched, stats.WarpsLaunched)
	}
	if want := []int64{405, 10, 405, 405}; stats.Cycles != 405 || !reflect.DeepEqual(stats.SMFinish, want) {
		t.Errorf("Cycles=%d SMFinish=%v, want 405 and %v", stats.Cycles, stats.SMFinish, want)
	}
}
