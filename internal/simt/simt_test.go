package simt

import (
	"strings"
	"testing"
	"time"
)

// testConfig returns a small, fast device for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxWarpsPerSM = 8
	cfg.MaxBlocksPerSM = 4
	return cfg
}

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.WarpWidth = 0 },
		func(c *Config) { c.WarpWidth = 33 },
		func(c *Config) { c.WarpWidth = 128 },
		func(c *Config) { c.MaxWarpsPerSM = 0 },
		func(c *Config) { c.MaxBlocksPerSM = -1 },
		func(c *Config) { c.DRAMLatency = -5 },
		func(c *Config) { c.SegmentBytes = 100 },
		func(c *Config) { c.SharedBanks = 0 },
		func(c *Config) { c.ClockGHz = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLaunchConfigValidate(t *testing.T) {
	cfg := testConfig()
	if err := (LaunchConfig{Blocks: 0, ThreadsPerBlock: 32}).Validate(cfg); err == nil {
		t.Error("zero blocks accepted")
	}
	if err := (LaunchConfig{Blocks: 1, ThreadsPerBlock: 0}).Validate(cfg); err == nil {
		t.Error("zero threads accepted")
	}
	// 8 warps/SM max; 9*32 threads needs 9 warp slots.
	if err := (LaunchConfig{Blocks: 1, ThreadsPerBlock: 9 * 32}).Validate(cfg); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestGrid1D(t *testing.T) {
	lc := Grid1D(1000, 128)
	if lc.Blocks != 8 || lc.ThreadsPerBlock != 128 {
		t.Fatalf("Grid1D(1000,128) = %+v", lc)
	}
	lc = Grid1D(0, 128)
	if lc.Blocks != 1 {
		t.Fatalf("Grid1D(0,128) = %+v", lc)
	}
	lc = Grid1D(100, 0)
	if lc.ThreadsPerBlock != 128 {
		t.Fatalf("Grid1D default block size: %+v", lc)
	}
}

// memsetKernel writes value v to out[tid] for tid < n.
func memsetKernel(out *BufI32, n int32, v int32) Kernel {
	return func(w *WarpCtx) {
		tid := w.GlobalThreadIDs()
		w.If(func(l int) bool { return tid[l] < n }, func() {
			w.StoreI32(out, tid, w.ConstI32(v))
		}, nil)
	}
}

func TestMemsetAcrossBlocksWithTail(t *testing.T) {
	d := newTestDevice(t)
	const n = 1000 // not a multiple of 32 or of the block size
	out := d.AllocI32("out", n)
	out.Fill(-1)
	stats, err := d.Launch(Grid1D(n, 96), memsetKernel(out, n, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != 7 {
			t.Fatalf("out[%d] = %d, want 7", i, v)
		}
	}
	if stats.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
	wantBlocks := (n + 95) / 96
	if stats.BlocksLaunched != wantBlocks {
		t.Fatalf("BlocksLaunched = %d, want %d", stats.BlocksLaunched, wantBlocks)
	}
	if stats.WarpsLaunched != wantBlocks*3 {
		t.Fatalf("WarpsLaunched = %d, want %d", stats.WarpsLaunched, wantBlocks*3)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *LaunchStats {
		d := MustNewDevice(testConfig())
		buf := d.AllocI32("buf", 512)
		cnt := d.AllocI32("cnt", 1)
		k := func(w *WarpCtx) {
			tid := w.GlobalThreadIDs()
			w.If(func(l int) bool { return tid[l] < 512 }, func() {
				one := w.ConstI32(1)
				zero := w.ConstI32(0)
				w.AtomicAddI32(cnt, zero, one, nil)
				w.StoreI32(buf, tid, tid)
			}, nil)
		}
		s, err := d.Launch(Grid1D(512, 128), k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.MemTxns != b.MemTxns || a.AtomicSerial != b.AtomicSerial {
		t.Fatalf("nondeterministic stats:\n%v\n%v", a, b)
	}
}

func TestIfDivergenceAccounting(t *testing.T) {
	d := newTestDevice(t)
	sink := d.AllocI32("sink", 64)
	// One warp; half the lanes take each side.
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		r := w.VecI32()
		w.If(func(l int) bool { return lane[l] < 16 }, func() {
			w.Apply(1, func(l int) { r[l] = 1 })
		}, func() {
			w.Apply(1, func(l int) { r[l] = 2 })
		})
		w.StoreI32(sink, lane, r)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DivergentBranches != 1 {
		t.Fatalf("DivergentBranches = %d, want 1", stats.DivergentBranches)
	}
	for i, v := range sink.Data()[:32] {
		want := int32(2)
		if i < 16 {
			want = 1
		}
		if v != want {
			t.Fatalf("sink[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestIfNonDivergent(t *testing.T) {
	d := newTestDevice(t)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		w.If(func(l int) bool { return lane[l] >= 0 }, func() {
			w.Apply(1, func(l int) {})
		}, func() {
			t.Error("else branch executed with no lanes")
		})
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DivergentBranches != 0 {
		t.Fatalf("DivergentBranches = %d, want 0", stats.DivergentBranches)
	}
}

func TestWhileImbalanceUtilization(t *testing.T) {
	// One lane loops 64 times, the rest once: utilization must collapse.
	run := func(skewed bool) *LaunchStats {
		d := MustNewDevice(testConfig())
		trips := d.AllocI32("trips", 32)
		data := trips.Data()
		for i := range data {
			data[i] = 1
			if skewed && i == 0 {
				data[i] = 64
			} else if !skewed {
				data[i] = 64
			}
		}
		k := func(w *WarpCtx) {
			lane := w.LaneIDs()
			limit := w.VecI32()
			w.LoadI32(trips, lane, limit)
			i := w.ConstI32(0)
			w.While(func(l int) bool { return i[l] < limit[l] }, func() {
				w.Apply(1, func(l int) { i[l]++ })
			})
		}
		s, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	skewed := run(true)
	balanced := run(false)
	if su, bu := skewed.SIMDUtilization(), balanced.SIMDUtilization(); su >= bu/2 {
		t.Fatalf("skewed utilization %.3f not far below balanced %.3f", su, bu)
	}
	// Both warps run ~64 iterations, so cycle counts are comparable even
	// though the skewed warp does 1/32nd the useful work.
	ratio := float64(skewed.Cycles) / float64(balanced.Cycles)
	if ratio < 0.5 || ratio > 1.2 {
		t.Fatalf("cycles ratio %.2f; straggler lane should dominate time", ratio)
	}
}

func TestCoalescingSequentialVsScattered(t *testing.T) {
	cfg := testConfig()
	run := func(stride int32) *LaunchStats {
		d := MustNewDevice(cfg)
		src := d.AllocI32("src", 32*int(stride)+1)
		k := func(w *WarpCtx) {
			lane := w.LaneIDs()
			idx := w.VecI32()
			w.Apply(1, func(l int) { idx[l] = lane[l] * stride })
			dst := w.VecI32()
			w.LoadI32(src, idx, dst)
		}
		s, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := run(1)        // 32 lanes * 4B = 128B = exactly one segment
	scattered := run(32) // every lane in its own 128B segment
	if seq.MemTxns != 1 {
		t.Fatalf("sequential load issued %d txns, want 1", seq.MemTxns)
	}
	if scattered.MemTxns != 32 {
		t.Fatalf("scattered load issued %d txns, want 32", scattered.MemTxns)
	}
	if scattered.Cycles <= seq.Cycles {
		t.Fatalf("scattered (%d cycles) not slower than sequential (%d)", scattered.Cycles, seq.Cycles)
	}
}

func TestAtomicAddSameAddressSerializes(t *testing.T) {
	d := newTestDevice(t)
	counter := d.AllocI32("counter", 1)
	k := func(w *WarpCtx) {
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		w.AtomicAddI32(counter, zero, one, nil)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.Data()[0]; got != 32 {
		t.Fatalf("counter = %d, want 32", got)
	}
	if stats.AtomicSerial != 31 {
		t.Fatalf("AtomicSerial = %d, want 31", stats.AtomicSerial)
	}
	if stats.AtomicOps != 1 {
		t.Fatalf("AtomicOps = %d, want 1", stats.AtomicOps)
	}
}

func TestAtomicAddDistinctAddressesNoSerialization(t *testing.T) {
	d := newTestDevice(t)
	counters := d.AllocI32("counters", 32)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		one := w.ConstI32(1)
		w.AtomicAddI32(counters, lane, one, nil)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AtomicSerial != 0 {
		t.Fatalf("AtomicSerial = %d, want 0", stats.AtomicSerial)
	}
	for i, v := range counters.Data() {
		if v != 1 {
			t.Fatalf("counters[%d] = %d", i, v)
		}
	}
}

func TestAtomicReturnsOldValues(t *testing.T) {
	d := newTestDevice(t)
	counter := d.AllocI32("counter", 1)
	olds := d.AllocI32("olds", 32)
	k := func(w *WarpCtx) {
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		old := w.VecI32()
		w.AtomicAddI32(counter, zero, one, old)
		w.StoreI32(olds, w.LaneIDs(), old)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	// Lane order is the serialization order, so olds must be 0..31.
	for i, v := range olds.Data() {
		if v != int32(i) {
			t.Fatalf("olds[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestAtomicMinCAS(t *testing.T) {
	d := newTestDevice(t)
	cell := d.AllocI32("cell", 3)
	cell.Data()[0] = 100
	cell.Data()[1] = 5
	cell.Data()[2] = 0
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		w.If(func(l int) bool { return lane[l] == 0 }, func() {
			idx0 := w.ConstI32(0)
			v := w.ConstI32(42)
			w.AtomicMinI32(cell, idx0, v, nil)
			idx1 := w.ConstI32(1)
			w.AtomicMinI32(cell, idx1, v, nil) // 5 < 42, unchanged
			idx2 := w.ConstI32(2)
			cmp := w.ConstI32(0)
			val := w.ConstI32(9)
			old := w.VecI32()
			w.AtomicCASI32(cell, idx2, cmp, val, old)
			w.AtomicCASI32(cell, idx2, cmp, w.ConstI32(77), old) // fails: cell!=0
		}, nil)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	if got := cell.Data()[0]; got != 42 {
		t.Fatalf("min: %d, want 42", got)
	}
	if got := cell.Data()[1]; got != 5 {
		t.Fatalf("min of a smaller cell: %d, want 5", got)
	}
	if got := cell.Data()[2]; got != 9 {
		t.Fatalf("cas: %d, want 9", got)
	}
}

func TestAtomicAddF32(t *testing.T) {
	d := newTestDevice(t)
	acc := d.AllocF32("acc", 1)
	k := func(w *WarpCtx) {
		zero := w.ConstI32(0)
		half := w.VecF32()
		w.Apply(1, func(l int) { half[l] = 0.5 })
		w.AtomicAddF32(acc, zero, half, nil)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	if got := acc.Data()[0]; got != 16 {
		t.Fatalf("float accumulation = %f, want 16", got)
	}
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	d := newTestDevice(t)
	const threads = 64 // two warps per block
	out := d.AllocI32("out", threads)
	// Warp 0 writes shared[i]=i; after a barrier warp 1 reads them back
	// reversed. Cross-warp visibility requires a correct barrier.
	k := func(w *WarpCtx) {
		sh := w.SharedI32("stage", threads)
		lane := w.LaneIDs()
		tidInBlock := w.VecI32()
		w.Apply(1, func(l int) { tidInBlock[l] = int32(w.WarpInBlock()*w.Width()) + lane[l] })
		if w.WarpInBlock() == 0 {
			w.StoreSharedI32(sh, tidInBlock, tidInBlock)
			w.Apply(1, func(l int) { tidInBlock[l] += int32(w.Width()) })
			w.StoreSharedI32(sh, tidInBlock, tidInBlock)
			w.Apply(1, func(l int) { tidInBlock[l] -= int32(w.Width()) })
		}
		w.SyncThreads()
		rev := w.VecI32()
		w.Apply(1, func(l int) { rev[l] = int32(threads) - 1 - tidInBlock[l] })
		got := w.VecI32()
		w.LoadSharedI32(sh, rev, got)
		w.StoreI32(out, tidInBlock, got)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: threads}, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != int32(threads-1-i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, threads-1-i)
		}
	}
	if stats.Barriers != 1 {
		t.Fatalf("Barriers = %d, want 1", stats.Barriers)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	cfg := testConfig() // 16 banks
	run := func(stride int32) *LaunchStats {
		d := MustNewDevice(cfg)
		k := func(w *WarpCtx) {
			sh := w.SharedI32("buf", 32*int(stride)+1)
			lane := w.LaneIDs()
			idx := w.VecI32()
			w.Apply(1, func(l int) { idx[l] = lane[l] * stride })
			v := w.VecI32()
			w.LoadSharedI32(sh, idx, v)
		}
		s, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	clean := run(1)  // stride 1: each lane a different bank pair, no conflicts
	worst := run(16) // stride 16 on 16 banks: all lanes in bank 0
	if clean.SharedBankConflicts != 0 {
		t.Fatalf("stride-1 conflicts = %d, want 0", clean.SharedBankConflicts)
	}
	// Two service groups of 16 lanes, each a 16-way conflict: 30 extra slots.
	if worst.SharedBankConflicts != 30 {
		t.Fatalf("stride-16 conflicts = %d, want 30", worst.SharedBankConflicts)
	}
}

func TestSharedSameWordBroadcastNoConflict(t *testing.T) {
	d := newTestDevice(t)
	k := func(w *WarpCtx) {
		sh := w.SharedI32("buf", 4)
		zero := w.ConstI32(0)
		v := w.VecI32()
		w.LoadSharedI32(sh, zero, v)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharedBankConflicts != 0 {
		t.Fatalf("broadcast counted as conflict: %d", stats.SharedBankConflicts)
	}
}

func TestSharedRedeclareMismatchPanicsAsError(t *testing.T) {
	d := newTestDevice(t)
	k := func(w *WarpCtx) {
		w.SharedI32("x", 8)
		w.SharedI32("x", 16)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err == nil {
		t.Fatal("shared redeclaration not reported")
	}
}

func TestKernelPanicBecomesLaunchError(t *testing.T) {
	d := newTestDevice(t)
	buf := d.AllocI32("buf", 8)
	k := func(w *WarpCtx) {
		idx := w.ConstI32(100) // out of range
		v := w.VecI32()
		w.LoadI32(buf, idx, v)
	}
	_, err := d.Launch(LaunchConfig{Blocks: 4, ThreadsPerBlock: 64}, k)
	if err == nil {
		t.Fatal("out-of-range access not reported")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestNoGoroutineLeakAfterError(t *testing.T) {
	before := goroutinesNetOfPool()
	d := newTestDevice(t)
	k := func(w *WarpCtx) {
		if w.BlockID() == 3 {
			panic("boom")
		}
		// Other blocks do some work.
		w.Apply(1, func(l int) {})
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 16, ThreadsPerBlock: 64}, k); err == nil {
		t.Fatal("panic not reported")
	}
	if after := settle(goroutinesNetOfPool, before); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d, net of pooled coroutines", before, after)
	}
	if n := strandedCoros(); n != 0 {
		t.Fatalf("%d coroutines stranded outside the pool", n)
	}
}

func TestMaxCyclesAbortsLivelock(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 100_000
	d := MustNewDevice(cfg)
	k := func(w *WarpCtx) {
		i := w.ConstI32(0)
		w.While(func(l int) bool { return i[l] >= 0 }, func() {
			w.Apply(1, func(l int) { i[l] = 0 })
		})
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
			t.Fatalf("want MaxCycles error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("livelock kernel hung the simulator")
	}
}

func TestApplyReplicatedUtilization(t *testing.T) {
	d := newTestDevice(t)
	out := d.AllocI32("out", 8)
	k := func(w *WarpCtx) {
		// 8 groups of 4 lanes; each group computes one value.
		vals := w.VecI32()
		w.ApplyReplicated(1, 4, func(g int) {
			for lane := g * 4; lane < g*4+4; lane++ {
				vals[lane] = int32(g * 10)
			}
		})
		lane := w.LaneIDs()
		w.If(func(l int) bool { return lane[l]%4 == 0 }, func() {
			idx := w.VecI32()
			w.Apply(1, func(l int) { idx[l] = lane[l] / 4 })
			w.StoreI32(out, idx, vals)
		}, nil)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	for g, v := range out.Data() {
		if v != int32(g*10) {
			t.Fatalf("out[%d] = %d, want %d", g, v, g*10)
		}
	}
	if u, su := stats.UsefulUtilization(), stats.SIMDUtilization(); u >= su {
		t.Fatalf("useful utilization %.3f should be below SIMD utilization %.3f", u, su)
	}
}

func TestGroupReduceAdd(t *testing.T) {
	d := newTestDevice(t)
	out := d.AllocI32("out", 32)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		sums := w.VecI32()
		w.GroupReduceAddI32(8, lane, sums)
		w.StoreI32(out, lane, sums)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	// Group g spans lanes 8g..8g+7; sum = 8*8g + 28.
	for i, v := range out.Data() {
		g := i / 8
		want := int32(8*8*g + 28)
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestGroupReduceAddRespectsMask(t *testing.T) {
	d := newTestDevice(t)
	out := d.AllocI32("out", 32)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		// Only odd lanes active: sum over odd lanes of each group of 4.
		w.If(func(l int) bool { return lane[l]%2 == 1 }, func() {
			sums := w.VecI32()
			w.GroupReduceAddI32(4, lane, sums)
			w.StoreI32(out, lane, sums)
		}, nil)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	// Group g's active lanes are 4g+1 and 4g+3.
	for i := 1; i < 32; i += 2 {
		g := i / 4
		want := int32(8*g + 4)
		if out.Data()[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out.Data()[i], want)
		}
	}
}

func TestBallotAndBroadcast(t *testing.T) {
	d := newTestDevice(t)
	out := d.AllocI32("out", 2)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		mask := w.Ballot(func(l int) bool { return lane[l] < 3 })
		bc := w.BroadcastI32(lane, 5)
		w.If(func(l int) bool { return lane[l] == 0 }, func() {
			w.StoreI32(out, w.ConstI32(0), w.ConstI32(int32(mask)))
			w.StoreI32(out, w.ConstI32(1), w.ConstI32(bc))
		}, nil)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	if got := out.Data()[0]; got != 0b111 {
		t.Fatalf("ballot = %#b, want 0b111", got)
	}
	if got := out.Data()[1]; got != 5 {
		t.Fatalf("broadcast = %d, want 5", got)
	}
}

func TestLatencyHiding(t *testing.T) {
	// Same total memory work, executed by 1 warp vs 8 warps per SM.
	// Oversubscription must hide DRAM latency and finish much sooner.
	cfg := testConfig()
	cfg.NumSMs = 1
	run := func(warps int) *LaunchStats {
		d := MustNewDevice(cfg)
		const loads = 16
		buf := d.AllocI32("buf", 32*8*loads)
		k := func(w *WarpCtx) {
			// Each warp does `loads` dependent scattered loads.
			idx := w.VecI32()
			lane := w.LaneIDs()
			v := w.VecI32()
			for i := 0; i < loads; i++ {
				w.Apply(1, func(l int) {
					idx[l] = (lane[l]*8 + int32(w.GlobalWarpID()) + int32(i)) % int32(buf.Len())
				})
				w.LoadI32(buf, idx, v)
			}
		}
		s, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, k)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	one := run(1)
	eight := run(8)
	// Eight warps do 8x the work; without latency hiding that is ~8x the
	// cycles. Require clearly better than 6x.
	ratio := float64(eight.Cycles) / float64(one.Cycles)
	if ratio > 6 {
		t.Fatalf("no latency hiding: 8 warps took %.1fx the cycles of 1 warp", ratio)
	}
	if one.StallCycles == 0 {
		t.Fatal("single warp should have recorded stall cycles")
	}
}

func TestWarpBusyImbalanceMetric(t *testing.T) {
	d := newTestDevice(t)
	work := d.AllocI32("work", 256)
	for i := range work.Data() {
		work.Data()[i] = 1
	}
	work.Data()[0] = 500 // one straggler vertex
	k := func(w *WarpCtx) {
		tid := w.GlobalThreadIDs()
		n := w.VecI32()
		w.LoadI32(work, tid, n)
		i := w.ConstI32(0)
		w.While(func(l int) bool { return i[l] < n[l] }, func() {
			w.Apply(1, func(l int) { i[l]++ })
		})
	}
	stats, err := d.Launch(Grid1D(256, 32), k)
	if err != nil {
		t.Fatal(err)
	}
	if cv := stats.WarpImbalanceCV(); cv < 0.5 {
		t.Fatalf("imbalance CV %.3f too low for straggler workload", cv)
	}
	if m := stats.WarpBusyMaxOverMean(); m < 2 {
		t.Fatalf("max/mean %.2f too low for straggler workload", m)
	}
}

func TestStatsAdd(t *testing.T) {
	a := &LaunchStats{Cycles: 10, Instructions: 5, WarpWidth: 32, WarpBusy: []int64{1, 2}}
	b := &LaunchStats{Cycles: 7, Instructions: 3, WarpBusy: []int64{4}}
	a.Add(b)
	if a.Cycles != 17 || a.Instructions != 8 || len(a.WarpBusy) != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestStatsStringAndTime(t *testing.T) {
	s := &LaunchStats{Cycles: 1_400_000, WarpWidth: 32, Instructions: 10, ActiveLaneOps: 160, UsefulLaneOps: 80}
	if ms := s.TimeMS(1.4); ms != 1.0 {
		t.Fatalf("TimeMS = %f, want 1.0", ms)
	}
	if s.SIMDUtilization() != 0.5 {
		t.Fatalf("SIMDUtilization = %f", s.SIMDUtilization())
	}
	if s.UsefulUtilization() != 0.25 {
		t.Fatalf("UsefulUtilization = %f", s.UsefulUtilization())
	}
	if !strings.Contains(s.String(), "cycles=1400000") {
		t.Fatalf("String: %s", s)
	}
}

func TestUploadAndFill(t *testing.T) {
	d := newTestDevice(t)
	b := d.UploadI32("b", []int32{1, 2, 3})
	if b.Len() != 3 || b.Data()[1] != 2 {
		t.Fatal("UploadI32 wrong")
	}
	b.Fill(9)
	if b.Data()[0] != 9 || b.Data()[2] != 9 {
		t.Fatal("Fill wrong")
	}
	f := d.UploadF32("f", []float32{1.5})
	if f.Len() != 1 || f.Data()[0] != 1.5 {
		t.Fatal("UploadF32 wrong")
	}
	f.Fill(2.5)
	if f.Data()[0] != 2.5 {
		t.Fatal("F32 Fill wrong")
	}
	if b.Name() != "b" || f.Name() != "f" {
		t.Fatal("names wrong")
	}
}

func TestUtilizationBounds(t *testing.T) {
	// Property: on arbitrary small kernels, utilizations stay in [0,1] and
	// useful <= active.
	d := newTestDevice(t)
	buf := d.AllocI32("buf", 64)
	k := func(w *WarpCtx) {
		lane := w.LaneIDs()
		w.If(func(l int) bool { return lane[l]%3 == 0 }, func() {
			v := w.VecI32()
			w.LoadI32(buf, lane, v)
			w.ApplyReplicated(2, 8, func(g int) {})
		}, func() {
			w.Apply(3, func(l int) {})
		})
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 2, ThreadsPerBlock: 48}, k)
	if err != nil {
		t.Fatal(err)
	}
	su, uu := stats.SIMDUtilization(), stats.UsefulUtilization()
	if su < 0 || su > 1 || uu < 0 || uu > 1 {
		t.Fatalf("utilization out of bounds: simd=%f useful=%f", su, uu)
	}
	if uu > su {
		t.Fatalf("useful %f > simd %f", uu, su)
	}
}

func TestBarrierWithExitedWarps(t *testing.T) {
	// Warp 1 returns before the barrier; warp 0 must still pass it.
	d := newTestDevice(t)
	out := d.AllocI32("out", 1)
	k := func(w *WarpCtx) {
		if w.WarpInBlock() == 1 {
			return
		}
		w.SyncThreads()
		w.If(func(l int) bool { return w.LaneIDs()[l] == 0 }, func() {
			w.StoreI32(out, w.ConstI32(0), w.ConstI32(1))
		}, nil)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 64}, k)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("barrier deadlocked with exited warp")
	}
	if out.Data()[0] != 1 {
		t.Fatal("warp 0 never ran past the barrier")
	}
}

func TestNilKernelRejected(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

func TestMoreBlocksThanResidency(t *testing.T) {
	// 64 blocks on 4 SMs x 4 blocks: forces retire-and-admit cycling.
	d := newTestDevice(t)
	const n = 64 * 32
	out := d.AllocI32("out", n)
	stats, err := d.Launch(LaunchConfig{Blocks: 64, ThreadsPerBlock: 32}, memsetKernel(out, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksLaunched != 64 {
		t.Fatalf("BlocksLaunched = %d", stats.BlocksLaunched)
	}
	for i, v := range out.Data() {
		if v != 3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestAtomicAddShared(t *testing.T) {
	d := newTestDevice(t)
	out := d.AllocI32("out", 4)
	k := func(w *WarpCtx) {
		sh := w.SharedI32("bins", 4)
		lane := w.LaneIDs()
		idx := w.VecI32()
		w.Apply(1, func(l int) { idx[l] = lane[l] % 4 })
		one := w.ConstI32(1)
		old := w.VecI32()
		w.AtomicAddSharedI32(sh, idx, one, old)
		w.SyncThreads()
		w.If(func(l int) bool { return lane[l] < 4 }, func() {
			v := w.VecI32()
			w.LoadSharedI32(sh, lane, v)
			w.StoreI32(out, lane, v)
		}, nil)
	}
	stats, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k)
	if err != nil {
		t.Fatal(err)
	}
	// 32 lanes over 4 bins: every bin gets exactly 8, no lost updates.
	for i, v := range out.Data() {
		if v != 8 {
			t.Fatalf("bin %d = %d, want 8", i, v)
		}
	}
	// Same-word serialization must be charged.
	if stats.SharedBankConflicts == 0 {
		t.Fatal("shared atomic contention not charged")
	}
}

func TestAtomicAddSharedOldValuesAreSerialOrder(t *testing.T) {
	d := newTestDevice(t)
	olds := d.AllocI32("olds", 32)
	k := func(w *WarpCtx) {
		sh := w.SharedI32("c", 1)
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		old := w.VecI32()
		w.AtomicAddSharedI32(sh, zero, one, old)
		w.StoreI32(olds, w.LaneIDs(), old)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, k); err != nil {
		t.Fatal(err)
	}
	for i, v := range olds.Data() {
		if v != int32(i) {
			t.Fatalf("olds[%d] = %d, want %d", i, v, i)
		}
	}
}
