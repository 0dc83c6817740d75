package simt

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// spinKernel burns roughly iters ALU instructions per lane.
func spinKernel(iters int32) Kernel {
	return func(w *WarpCtx) {
		i := w.ConstI32(0)
		w.While(func(lane int) bool { return i[lane] < iters }, func() {
			w.Apply(1, func(lane int) { i[lane]++ })
		})
	}
}

func oneWarp(cfg Config) LaunchConfig {
	return LaunchConfig{Blocks: 1, ThreadsPerBlock: cfg.WarpWidth}
}

func TestOOBLoadReturnsTypedFault(t *testing.T) {
	d := newTestDevice(t)
	buf := d.AllocI32("data", 8)
	_, err := d.Launch(oneWarp(d.Config()), func(w *WarpCtx) {
		dst := w.VecI32()
		w.LoadI32(buf, w.ConstI32(99), dst)
	})
	if err == nil {
		t.Fatal("OOB load succeeded")
	}
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("error is not a *KernelFault: %v", err)
	}
	if kf.Kind != FaultOOB {
		t.Fatalf("kind = %v, want out-of-bounds", kf.Kind)
	}
	if kf.Buffer != "data" || kf.Index != 99 {
		t.Fatalf("fault location: buffer %q index %d", kf.Buffer, kf.Index)
	}
	if kf.Block < 0 || kf.Warp < 0 || kf.Lane < 0 {
		t.Fatalf("fault not located in the grid: %+v", kf)
	}
	if IsTransient(err) {
		t.Fatal("OOB fault must not be transient")
	}
}

func TestOOBStoreNamesSharedBuffer(t *testing.T) {
	d := newTestDevice(t)
	_, err := d.Launch(oneWarp(d.Config()), func(w *WarpCtx) {
		s := w.SharedI32("scratch", 4)
		w.StoreSharedI32(s, w.ConstI32(77), w.ConstI32(1))
	})
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("error is not a *KernelFault: %v", err)
	}
	if kf.Kind != FaultOOB || !strings.Contains(kf.Buffer, "scratch") {
		t.Fatalf("fault = %+v", kf)
	}
}

func TestKernelPanicBecomesTypedFault(t *testing.T) {
	d := newTestDevice(t)
	_, err := d.Launch(oneWarp(d.Config()), func(w *WarpCtx) {
		panic("kernel bug")
	})
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("error is not a *KernelFault: %v", err)
	}
	if kf.Kind != FaultPanic {
		t.Fatalf("kind = %v, want kernel-panic", kf.Kind)
	}
	if !strings.Contains(kf.Detail, "kernel bug") {
		t.Fatalf("detail lost the panic value: %q", kf.Detail)
	}
	if kf.Stack == "" {
		t.Fatal("panic fault carries no stack")
	}
	if IsTransient(err) {
		t.Fatal("kernel panic must not be transient")
	}
}

func TestMaxCyclesReturnsTimeoutWithPartialStats(t *testing.T) {
	d := newTestDevice(t)
	stats, err := d.LaunchWith(oneWarp(d.Config()), LaunchOpts{MaxCycles: 200}, spinKernel(1<<20))
	if !errors.Is(err, ErrLaunchTimeout) {
		t.Fatalf("err = %v, want ErrLaunchTimeout", err)
	}
	if stats == nil || stats.Cycles == 0 {
		t.Fatalf("timeout must return the partial stats accumulated so far, got %+v", stats)
	}
	if stats.Cycles < 200 {
		t.Fatalf("partial stats stop before the deadline: %d cycles", stats.Cycles)
	}
}

func TestOnProgressCancelsLaunch(t *testing.T) {
	d := newTestDevice(t)
	cause := errors.New("caller gave up")
	calls := 0
	opts := LaunchOpts{
		ProgressEvery: 64,
		OnProgress: func(cycle int64) error {
			calls++
			if cycle > 300 {
				return cause
			}
			return nil
		},
	}
	stats, err := d.LaunchWith(oneWarp(d.Config()), opts, spinKernel(1<<20))
	if !errors.Is(err, ErrLaunchCancelled) {
		t.Fatalf("err = %v, want ErrLaunchCancelled", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cancellation cause not in the chain: %v", err)
	}
	if calls < 2 {
		t.Fatalf("OnProgress called %d times, want periodic callbacks", calls)
	}
	if stats == nil {
		t.Fatal("cancelled launch must return partial stats")
	}
}

func TestLaunchWithRejectsNegativeOpts(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.LaunchWith(oneWarp(d.Config()), LaunchOpts{MaxCycles: -1}, spinKernel(4)); err == nil {
		t.Fatal("negative MaxCycles accepted")
	}
	if _, err := d.LaunchWith(oneWarp(d.Config()), LaunchOpts{ProgressEvery: -1}, spinKernel(4)); err == nil {
		t.Fatal("negative ProgressEvery accepted")
	}
}

func TestInjectedAbortIsTransientAndDeterministic(t *testing.T) {
	run := func() (string, error) {
		d := newTestDevice(t)
		d.SetFaultPlan(&FaultPlan{Seed: 7, AbortEvery: 1})
		_, err := d.Launch(oneWarp(d.Config()), spinKernel(1<<16))
		return fmt.Sprint(err), err
	}
	msg1, err1 := run()
	msg2, _ := run()
	if err1 == nil {
		t.Fatal("injected abort did not surface")
	}
	var kf *KernelFault
	if !errors.As(err1, &kf) || kf.Kind != FaultAbort {
		t.Fatalf("err = %v, want FaultAbort", err1)
	}
	if !IsTransient(err1) {
		t.Fatal("injected abort must be transient")
	}
	if msg1 != msg2 {
		t.Fatalf("same seed, different faults:\n%s\n%s", msg1, msg2)
	}
}

func TestInjectedBitFlipCorruptsNamedBuffer(t *testing.T) {
	d := newTestDevice(t)
	data := d.UploadI32("data", []int32{1, 2, 3, 4, 5, 6, 7, 8})
	d.AllocI32("other", 8) // eligible only if Buffers does not restrict
	orig := append([]int32(nil), data.Data()...)
	d.SetFaultPlan(&FaultPlan{Seed: 42, BitFlipEvery: 1, Buffers: []string{"data"}})
	_, err := d.Launch(oneWarp(d.Config()), spinKernel(1<<12))
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("bit-flip not reported: %v", err)
	}
	if kf.Kind != FaultBitFlip || kf.Buffer != "data" {
		t.Fatalf("fault = %+v", kf)
	}
	if !IsTransient(err) {
		t.Fatal("bit-flip must be transient")
	}
	if kf.Index < 0 || kf.Index >= int64(len(orig)) {
		t.Fatalf("corrupt index %d out of range", kf.Index)
	}
	if data.Data()[kf.Index] == orig[kf.Index] {
		t.Fatal("reported corruption did not happen")
	}
	for i, v := range data.Data() {
		if int64(i) != kf.Index && v != orig[i] {
			t.Fatalf("element %d corrupted but fault names index %d", i, kf.Index)
		}
	}
}

func TestBitFlipAlwaysReportedEvenIfKernelDrainsFirst(t *testing.T) {
	d := newTestDevice(t)
	d.UploadI32("data", make([]int32, 64))
	d.SetFaultPlan(&FaultPlan{Seed: 3, BitFlipEvery: 1})
	// A near-instant kernel: it will almost certainly finish before the
	// randomly chosen abort cycle, so the fault must fire at drain instead
	// of being silently swallowed.
	_, err := d.Launch(oneWarp(d.Config()), func(w *WarpCtx) {})
	var kf *KernelFault
	if !errors.As(err, &kf) || kf.Kind != FaultBitFlip {
		t.Fatalf("drained launch swallowed the bit-flip: %v", err)
	}
}

func TestMaxFaultsBoundsInjection(t *testing.T) {
	d := newTestDevice(t)
	d.SetFaultPlan(&FaultPlan{Seed: 1, AbortEvery: 1, MaxFaults: 2})
	lc := oneWarp(d.Config())
	for i := 0; i < 2; i++ {
		if _, err := d.Launch(lc, spinKernel(1<<12)); err == nil {
			t.Fatalf("launch %d: expected injected abort", i+1)
		}
	}
	if _, err := d.Launch(lc, spinKernel(1<<12)); err != nil {
		t.Fatalf("budget exhausted but launch 3 still faulted: %v", err)
	}
}

func TestDeviceLossPoisonsUntilRevive(t *testing.T) {
	d := newTestDevice(t)
	d.SetFaultPlan(&FaultPlan{Seed: 9, DeviceLossAfterCycles: 100})
	lc := oneWarp(d.Config())
	_, err := d.Launch(lc, spinKernel(1<<16))
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
	if IsTransient(err) {
		t.Fatal("device loss reported transient")
	}
	if !d.Lost() {
		t.Fatal("device not marked lost")
	}
	// Every further launch fails fast with the same sentinel.
	if _, err := d.Launch(lc, spinKernel(4)); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("lost device accepted a launch: %v", err)
	}
	// Revive with the plan removed restores service.
	d.Revive()
	d.SetFaultPlan(nil)
	if _, err := d.Launch(lc, spinKernel(4)); err != nil {
		t.Fatalf("revived device failed: %v", err)
	}
}

func TestShortLaunchSurvivesUnderLossThreshold(t *testing.T) {
	d := newTestDevice(t)
	d.SetFaultPlan(&FaultPlan{Seed: 9, DeviceLossAfterCycles: 1 << 40})
	if _, err := d.Launch(oneWarp(d.Config()), spinKernel(64)); err != nil {
		t.Fatalf("launch far under the loss threshold failed: %v", err)
	}
	if d.Lost() {
		t.Fatal("device lost below threshold")
	}
}

func TestAbortUnwindsBarrierBlockedWarps(t *testing.T) {
	// Multiple blocks of multiple warps parked at a barrier when the abort
	// fires: every warp must unwind cleanly (no deadlock, no
	// escaped panic) and Launch must return the injected error.
	d := newTestDevice(t)
	d.SetFaultPlan(&FaultPlan{Seed: 5, AbortEvery: 1})
	cfg := d.Config()
	lc := LaunchConfig{Blocks: 4, ThreadsPerBlock: 2 * cfg.WarpWidth}
	_, err := d.Launch(lc, func(w *WarpCtx) {
		i := w.ConstI32(0)
		w.While(func(lane int) bool { return i[lane] < 1<<12 }, func() {
			w.Apply(1, func(lane int) { i[lane]++ })
			// The loop condition is uniform, so every warp reaches this
			// barrier in lockstep; the point is parking warps in it.
			w.SyncThreads() //kernelcheck:ignore barrier
		})
	})
	var kf *KernelFault
	if !errors.As(err, &kf) || kf.Kind != FaultAbort {
		t.Fatalf("err = %v, want injected FaultAbort", err)
	}
	// The device is healthy: an un-injected follow-up launch succeeds.
	d.SetFaultPlan(nil)
	if _, err := d.Launch(lc, spinKernel(16)); err != nil {
		t.Fatalf("device unusable after abort: %v", err)
	}
}

func TestFaultPlanResetRestartsSchedule(t *testing.T) {
	d := newTestDevice(t)
	d.SetFaultPlan(&FaultPlan{Seed: 11, AbortEvery: 2})
	lc := oneWarp(d.Config())
	if _, err := d.Launch(lc, spinKernel(256)); err != nil {
		t.Fatalf("launch 1 should not fault (AbortEvery=2): %v", err)
	}
	if _, err := d.Launch(lc, spinKernel(256)); err == nil {
		t.Fatal("launch 2 should fault")
	}
	// Reinstalling the plan restarts launch numbering at 1.
	d.SetFaultPlan(&FaultPlan{Seed: 11, AbortEvery: 2})
	if _, err := d.Launch(lc, spinKernel(256)); err != nil {
		t.Fatalf("launch numbering not reset: %v", err)
	}
}
