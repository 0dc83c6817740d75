package simt

import (
	"fmt"
	"testing"
)

// Simulator meta-benchmarks: how many simulated warp instructions the
// engine executes per host second. Useful when sizing experiment scales.

func benchKernelALU(iters int) Kernel {
	return func(w *WarpCtx) {
		v := w.VecI32()
		for i := 0; i < iters; i++ {
			w.Apply(1, func(l int) { v[l]++ })
		}
	}
}

func BenchmarkSimulatorALUThroughput(b *testing.B) {
	benchALUThroughput(b, 1, LaunchConfig{Blocks: 128, ThreadsPerBlock: 32})
}

// BenchmarkSimulatorALUFullResidency is BenchmarkSimulatorALUThroughput with
// 128-thread blocks: 512 warps fill the default device's 16 SMs to
// MaxWarpsPerSM (32), so every pick chooses among a full SM's warps, in both
// host modes.
func BenchmarkSimulatorALUFullResidency(b *testing.B) {
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			benchALUThroughput(b, par, LaunchConfig{Blocks: 128, ThreadsPerBlock: 128})
		})
	}
}

// benchALUThroughput launches a 64-instruction ALU kernel over lc on a fresh
// default device with the given ParallelSMs per iteration.
func benchALUThroughput(b *testing.B, parallelSMs int, lc LaunchConfig) {
	cfg := DefaultConfig()
	cfg.ParallelSMs = parallelSMs
	const iters = 64
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		d := MustNewDevice(cfg)
		stats, err := d.Launch(lc, benchKernelALU(iters))
		if err != nil {
			b.Fatal(err)
		}
		instr += stats.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

// BenchmarkApplyUniform measures the steady-state cost of the hottest warp
// primitive — a fully-uniform Apply — on a persistent device, so warp
// runtimes, lane-state slabs, and kernel scratch are all recycled across
// launches and the interpret loop runs allocation-free. Memory per op is
// launch-scaffolding only (launch/smRT/blockRT), amortized over
// iters*warps*width lane-instructions; the reported lane-instrs/s is the
// headline number.
func BenchmarkApplyUniform(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	d := MustNewDevice(cfg)
	const iters = 512
	const warps = 16
	kernel := func(w *WarpCtx) {
		v := w.VecI32()
		for i := 0; i < iters; i++ {
			w.Apply(1, func(l int) { v[l]++ })
		}
	}
	// Warm once: first use of each warp context grows its register file.
	if _, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		stats, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel)
		if err != nil {
			b.Fatal(err)
		}
		instr += stats.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

// BenchmarkApplyUniformBatch is BenchmarkApplyUniform with the per-lane
// closure replaced by the vectorized primitive (AddConstI32): the same
// simulated instruction stream, executed as a tight slab loop instead of
// width indirect calls. The ratio to BenchmarkApplyUniform is the batch
// execution win on the uniform-ALU interpret loop.
func BenchmarkApplyUniformBatch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	d := MustNewDevice(cfg)
	const iters = 512
	const warps = 16
	kernel := func(w *WarpCtx) {
		v := w.VecI32()
		for i := 0; i < iters; i++ {
			w.AddConstI32(v, 1)
		}
	}
	if _, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		stats, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel)
		if err != nil {
			b.Fatal(err)
		}
		instr += stats.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

// BenchmarkApplyDivergent is the slow-path twin of BenchmarkApplyUniform:
// half the lanes are masked off by an If, so every Apply walks the masked
// per-lane path. The uniform/divergent ratio bounds the fast path's win.
func BenchmarkApplyDivergent(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	d := MustNewDevice(cfg)
	const iters = 512
	const warps = 16
	kernel := func(w *WarpCtx) {
		v := w.VecI32()
		lane := w.LaneIDs()
		w.If(func(l int) bool { return lane[l]%2 == 0 }, func() {
			for i := 0; i < iters; i++ {
				w.Apply(1, func(l int) { v[l]++ })
			}
		}, nil)
	}
	if _, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		stats, err := d.Launch(LaunchConfig{Blocks: warps, ThreadsPerBlock: 32}, kernel)
		if err != nil {
			b.Fatal(err)
		}
		instr += stats.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

func BenchmarkSimulatorMemThroughput(b *testing.B) {
	cfg := DefaultConfig()
	var instr int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := MustNewDevice(cfg)
		buf := d.AllocI32("buf", 1<<16)
		k := func(w *WarpCtx) {
			idx := w.VecI32()
			v := w.VecI32()
			lane := w.LaneIDs()
			for it := 0; it < 32; it++ {
				w.Apply(1, func(l int) {
					idx[l] = (lane[l]*97 + int32(it)*1031 + int32(w.GlobalWarpID())) & (1<<16 - 1)
				})
				w.LoadI32(buf, idx, v)
			}
		}
		stats, err := d.Launch(LaunchConfig{Blocks: 128, ThreadsPerBlock: 32}, k)
		if err != nil {
			b.Fatal(err)
		}
		instr += stats.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

func BenchmarkSimulatorAtomics(b *testing.B) {
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := MustNewDevice(cfg)
		cnt := d.AllocI32("cnt", 64)
		k := func(w *WarpCtx) {
			lane := w.LaneIDs()
			idx := w.VecI32()
			w.Apply(1, func(l int) { idx[l] = lane[l] % 64 })
			one := w.ConstI32(1)
			for it := 0; it < 16; it++ {
				w.AtomicAddI32(cnt, idx, one, nil)
			}
		}
		if _, err := d.Launch(LaunchConfig{Blocks: 64, ThreadsPerBlock: 32}, k); err != nil {
			b.Fatal(err)
		}
	}
}
