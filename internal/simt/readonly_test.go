package simt_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"maxwarp/internal/gpualgo"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// frozenWrite is one write primitive aimed at a frozen buffer: ri is an
// int32 buffer and rf a float32 one, both frozen; idx holds each lane's
// target index.
type frozenWrite struct {
	name   string
	buffer string
	write  func(w *simt.WarpCtx, ri *simt.BufI32, rf *simt.BufF32, idx []int32)
}

func i32Write(name string, op func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32)) frozenWrite {
	return frozenWrite{name, "ri", func(w *simt.WarpCtx, ri *simt.BufI32, _ *simt.BufF32, idx []int32) {
		op(w, ri, idx, w.ConstI32(3))
	}}
}

func grouped(w *simt.WarpCtx, body func(ts *vwarp.Tasks)) {
	vwarp.ForEach(w, vwarp.Schedule{K: 4}, int32(w.GridThreads()/4), body)
}

var frozenWrites = []frozenWrite{
	i32Write("StoreI32", func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32) { w.StoreI32(b, idx, v) }),
	i32Write("AtomicAddI32", func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32) { w.AtomicAddI32(b, idx, v, nil) }),
	i32Write("AtomicMinI32", func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32) { w.AtomicMinI32(b, idx, v, nil) }),
	i32Write("AtomicCASI32", func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32) { w.AtomicCASI32(b, idx, v, v, nil) }),
	i32Write("AtomicOrI32", func(w *simt.WarpCtx, b *simt.BufI32, idx, v []int32) { w.AtomicOrI32(b, idx, v, nil) }),
	{"StoreF32", "rf", func(w *simt.WarpCtx, _ *simt.BufI32, rf *simt.BufF32, idx []int32) {
		v := w.VecF32()
		w.FillF32(v, 1.5)
		w.StoreF32(rf, idx, v)
	}},
	{"AtomicAddF32", "rf", func(w *simt.WarpCtx, _ *simt.BufI32, rf *simt.BufF32, idx []int32) {
		v := w.VecF32()
		w.FillF32(v, 1.5)
		w.AtomicAddF32(rf, idx, v, nil)
	}},
	{"StoreI32Grouped", "ri", func(w *simt.WarpCtx, ri *simt.BufI32, _ *simt.BufF32, _ []int32) {
		grouped(w, func(ts *vwarp.Tasks) { ts.StoreI32Grouped(ri, ts.Task, ts.Task, nil) })
	}},
	{"StoreF32Grouped", "rf", func(w *simt.WarpCtx, _ *simt.BufI32, rf *simt.BufF32, _ []int32) {
		grouped(w, func(ts *vwarp.Tasks) { ts.StoreF32Grouped(rf, ts.Task, make([]float32, ts.Groups), nil) })
	}},
	{"AtomicAddGrouped", "ri", func(w *simt.WarpCtx, ri *simt.BufI32, _ *simt.BufF32, _ []int32) {
		grouped(w, func(ts *vwarp.Tasks) { ts.AtomicAddGrouped(ri, ts.Task, ts.Task, nil, nil) })
	}},
}

// frozenWriteStepper launches the frozen-write kernel as one resumable step.
type frozenWriteStepper struct {
	d      *simt.Device
	lc     simt.LaunchConfig
	kernel simt.Kernel
	stats  *simt.LaunchStats
}

func (s *frozenWriteStepper) Step() (bool, error) {
	var err error
	s.stats, err = s.d.Launch(s.lc, s.kernel)
	return err == nil, err
}

func (s *frozenWriteStepper) State() gpualgo.RunState { return gpualgo.RunState{} }
func (s *frozenWriteStepper) Iterations() int         { return 0 }

// newFrozenWrite returns a one-block launch of four warps on 8 SMs: every
// warp loads the frozen buffers and a mutable one, stores to the mutable
// one and runs ALU instructions, and warp 2 then aims op at the frozen
// buffers from lanes 5 and up. One block keeps the other SMs idle, so the
// partial stats of the failed launch do not depend on host timing.
func newFrozenWrite(parallelSMs int, op frozenWrite) *frozenWriteStepper {
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 8
	cfg.ParallelSMs = parallelSMs
	cfg.CacheLines = 16
	cfg.CacheWays = 2
	d := simt.MustNewDevice(cfg)
	init := make([]int32, 256)
	for i := range init {
		init[i] = int32(i*7) % 256
	}
	ri := d.UploadI32("ri", init).Freeze()
	rf := d.UploadF32("rf", make([]float32, 256)).Freeze()
	mut := d.AllocI32("mut", 256)
	kernel := func(w *simt.WarpCtx) {
		gtid := w.GlobalThreadIDs()
		v, u := w.VecI32(), w.VecI32()
		f := w.VecF32()
		for round := 0; round < 3; round++ {
			w.LoadI32(ri, gtid, v)
			w.LoadF32(rf, v, f)
			w.LoadI32(mut, v, u)
			w.AddI32(u, u, v)
			w.StoreI32(mut, gtid, u)
			for i := 0; i < 5; i++ {
				w.Apply(1, func(l int) { v[l] = (v[l] + 1) & 255 })
			}
		}
		if w.GlobalWarpID() == 2 {
			w.If(func(l int) bool { return l >= 5 }, func() { op.write(w, ri, rf, v) }, nil)
		}
		w.LoadI32(ri, v, u)
		w.StoreI32(mut, gtid, u)
	}
	return &frozenWriteStepper{d: d, lc: simt.LaunchConfig{Blocks: 1, ThreadsPerBlock: 128}, kernel: kernel}
}

// TestReadOnlyWriteFaults: every store and atomic primitive, vwarp's
// grouped ones included, fails with the same FaultReadOnly fault (buffer,
// block, warp, lane, index, cycle) and the same partial LaunchStats in
// every host mode, and resilient.Drive does not retry it.
func TestReadOnlyWriteFaults(t *testing.T) {
	for _, op := range frozenWrites {
		t.Run(op.name, func(t *testing.T) {
			var ref *simt.KernelFault
			var refStats simt.LaunchStats
			for _, mode := range []int{1, 2, 8} {
				s := newFrozenWrite(mode, op)
				out, err := resilient.Drive(resilient.Policy{Sleep: func(time.Duration) {}}, s)
				var kf *simt.KernelFault
				if !errors.As(err, &kf) {
					t.Fatalf("ParallelSMs=%d: err = %v, want a *KernelFault", mode, err)
				}
				if kf.Kind != simt.FaultReadOnly || kf.Kind.String() != "read-only-write" || simt.IsTransient(err) {
					t.Errorf("ParallelSMs=%d: %v: want a permanent read-only-write fault", mode, err)
				}
				if out.Retries != 0 || len(out.Faults) != 1 {
					t.Errorf("ParallelSMs=%d: Drive retried %d times over %d faults, want 0 over 1", mode, out.Retries, len(out.Faults))
				}
				if kf.Buffer != op.buffer || kf.Block != 0 || kf.Warp != 2 || kf.Cycle <= 0 {
					t.Errorf("ParallelSMs=%d: %v: want buffer %q in block 0 warp 2 at a positive cycle", mode, err, op.buffer)
				}
				stats := *s.stats
				stats.ParallelSMs = 1
				if ref == nil {
					ref, refStats = kf, stats
					continue
				}
				if *kf != *ref {
					t.Errorf("ParallelSMs=%d: fault %+v, sequential %+v", mode, *kf, *ref)
				}
				if !reflect.DeepEqual(stats, refStats) {
					t.Errorf("ParallelSMs=%d: partial stats differ from sequential:\n got %+v\nwant %+v", mode, stats, refStats)
				}
			}
			if ref.Lane < 5 || ref.Index < 0 {
				t.Errorf("fault at lane %d index %d, want a lane >= 5 and its index", ref.Lane, ref.Index)
			}
		})
	}
}
