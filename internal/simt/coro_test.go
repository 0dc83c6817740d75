package simt

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// goroutinesNetOfPool is runtime.NumGoroutine less the coroutines parked in
// the process-wide pool, read under the pool's lock: any goroutine a launch
// leaves behind that is not an idle coroutine still counts.
func goroutinesNetOfPool() int {
	coroPool.Lock()
	defer coroPool.Unlock()
	return runtime.NumGoroutine() - len(coroPool.free)
}

// strandedCoros is the number of live coroutines not parked in the pool.
// Between launches every coroutine is parked, so it must be 0.
func strandedCoros() int64 {
	coroPool.Lock()
	defer coroPool.Unlock()
	return corosCreated.Load() - corosStopped.Load() - int64(len(coroPool.free))
}

// settle polls until n() <= max or five seconds pass and returns the last
// n(): a parallel launch's domain goroutines may still be exiting when
// Launch returns.
func settle(n func() int, max int) int {
	deadline := time.Now().Add(5 * time.Second)
	for n() > max && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return n()
}

// TestCoroutineReuseAcrossDevices pins what makes coroutines cheaper than
// goroutines: a launch on a fresh device reuses the coroutines an earlier
// launch of the same shape parked in the pool, and creates none.
func TestCoroutineReuseAcrossDevices(t *testing.T) {
	k := func(w *WarpCtx) {
		v := w.VecI32()
		w.Apply(1, func(l int) { v[l] = int32(l) })
		w.SyncThreads()
		w.Apply(1, func(l int) { v[l]++ })
	}
	lc := LaunchConfig{Blocks: 24, ThreadsPerBlock: 64}
	for _, mode := range []int{1, 2} {
		cfg := testConfig()
		cfg.ParallelSMs = mode
		if _, err := MustNewDevice(cfg).Launch(lc, k); err != nil {
			t.Fatal(err)
		}
		created := corosCreated.Load()
		stats, err := MustNewDevice(cfg).Launch(lc, k)
		if err != nil {
			t.Fatal(err)
		}
		if stats.WarpsLaunched == 0 {
			t.Fatalf("ParallelSMs=%d: no warps ran", mode)
		}
		if n := corosCreated.Load() - created; n != 0 {
			t.Errorf("ParallelSMs=%d: the second launch created %d coroutines, want 0", mode, n)
		}
	}
}

// TestFailedLaunchesStrandNoCoroutine runs failing launches back to back:
// every unwound warp returns its coroutine, so none is left outside the
// pool, and the pool never grows past the device's resident-warp capacity.
func TestFailedLaunchesStrandNoCoroutine(t *testing.T) {
	failures := []struct {
		name   string
		opts   LaunchOpts
		kernel func(buf *BufI32) Kernel
	}{
		{"panic", LaunchOpts{}, func(*BufI32) Kernel {
			return func(w *WarpCtx) {
				w.Apply(1, func(int) {})
				if w.BlockID() == 3 {
					panic("boom")
				}
			}
		}},
		{"out-of-range", LaunchOpts{}, func(buf *BufI32) Kernel {
			return func(w *WarpCtx) {
				idx := w.ConstI32(0)
				if w.BlockID() == 5 {
					w.Apply(1, func(l int) { idx[l] = 1 << 20 })
				}
				w.AtomicAddI32(buf, idx, w.ConstI32(1), nil)
			}
		}},
		{"max-cycles", LaunchOpts{MaxCycles: 2000}, func(*BufI32) Kernel { return spinKernel(1 << 20) }},
		{"on-progress", LaunchOpts{ProgressEvery: 500, OnProgress: func(c int64) error {
			if c >= 1500 {
				return errors.New("stop")
			}
			return nil
		}}, func(*BufI32) Kernel { return spinKernel(1 << 20) }},
	}
	for _, mode := range []int{1, 4} {
		cfg := testConfig()
		cfg.ParallelSMs = mode
		limit := cfg.NumSMs * cfg.MaxWarpsPerSM
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			f := failures[i%len(failures)]
			d := MustNewDevice(cfg)
			buf := d.AllocI32("buf", 8)
			if _, err := d.LaunchWith(LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}, f.opts, f.kernel(buf)); err == nil {
				t.Fatalf("ParallelSMs=%d launch %d (%s) did not fail", mode, i, f.name)
			}
			if n := strandedCoros(); n != 0 {
				t.Fatalf("ParallelSMs=%d launch %d (%s): %d coroutines stranded outside the pool", mode, i, f.name, n)
			}
			if n := settle(runtime.NumGoroutine, before+limit) - before; n > limit {
				t.Fatalf("ParallelSMs=%d launch %d (%s): goroutines grew by %d, past the pool cap %d", mode, i, f.name, n, limit)
			}
		}
	}
}
