package bench

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

var updateAllocGate = flag.Bool("update-alloc-gate", false,
	"rewrite testdata/alloc_gate.json from the current build instead of comparing")

// allocGatePath holds the committed allocs/op of each hot-path probe.
const allocGatePath = "testdata/alloc_gate.json"

// allocGateKernel is the shared hot-loop probe body: a fully-uniform
// vectorized add, the cheapest instruction the interpret loop executes.
func allocGateKernel(w *simt.WarpCtx) {
	v := w.VecI32()
	for i := 0; i < 256; i++ {
		w.AddConstI32(v, 1)
	}
}

// gateApplyUniform is the sequential hot-loop probe: a persistent device
// running a fully-uniform kernel. Steady-state allocations are launch
// scaffolding only; a regression here means the interpret loop started
// allocating again.
func gateApplyUniform() (int64, error) {
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	return gateApply(cfg)
}

// gateApplyParallel is the same probe under ParallelSMs>1: it additionally
// covers the per-SM goroutine machinery (token handoff, gate horizons, one
// scheduling domain per SM) so parallel-mode-only allocation regressions
// cannot hide behind the sequential gate.
func gateApplyParallel() (int64, error) {
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	cfg.ParallelSMs = 4
	return gateApply(cfg)
}

func gateApply(cfg simt.Config) (int64, error) {
	d := simt.MustNewDevice(cfg)
	lc := simt.LaunchConfig{Blocks: 16, ThreadsPerBlock: 32}
	if _, err := d.Launch(lc, allocGateKernel); err != nil {
		return 0, err
	}
	var launchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch(lc, allocGateKernel); err != nil {
				launchErr = err
				b.FailNow()
			}
		}
	})
	return res.AllocsPerOp(), launchErr
}

// gateGraph is the end-to-end probes' small skewed graph.
func gateGraph() (*graph.CSR, error) { return gengraph.ChungLu(1<<11, 16, 2.2, 42) }

// gateBFSSmall is the end-to-end probe: a fresh device plus one BFS on a
// small skewed graph per op, covering upload, launch scaffolding, the
// per-warp vwarp Tasks a fresh device builds, any kernel closure that
// escapes to the heap, and host-side frontier management.
func gateBFSSmall() (int64, error) {
	g, err := gateGraph()
	if err != nil {
		return 0, err
	}
	src := graph.LargestOutComponentSeed(g)
	var bfsErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := simt.MustNewDevice(simt.DefaultConfig())
			if _, err := gpualgo.BFS(d, gpualgo.Upload(d, g), src, gpualgo.Options{K: 32}); err != nil {
				bfsErr = err
				b.FailNow()
			}
		}
	})
	return res.AllocsPerOp(), bfsErr
}

// gateCCSmall is gateBFSSmall for connected components on the symmetrized
// graph: a vwarp kernel whose closures sit inline in its ForEach body, so a
// helper that makes a caller's closure escape shows up here per round.
func gateCCSmall() (int64, error) {
	g, err := gateGraph()
	if err != nil {
		return 0, err
	}
	if g, err = g.Symmetrize(); err != nil {
		return 0, err
	}
	var ccErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := simt.MustNewDevice(simt.DefaultConfig())
			if _, err := gpualgo.ConnectedComponents(d, gpualgo.Upload(d, g), gpualgo.Options{K: 32}); err != nil {
				ccErr = err
				b.FailNow()
			}
		}
	})
	return res.AllocsPerOp(), ccErr
}

// gateWidthSwitch is the width-switch probe: one persistent device
// alternating a K=32 BFS and a K=4 CC on cc_small's symmetrized graph, as a
// served device alternates the widths tuned for different graphs. An op is
// one BFS plus one CC, so two width switches; a device that rebuilt each
// warp context's vwarp Tasks at every switch shows up here. The device
// keeps every run's buffers, but a launch arms shadows only for the buffers
// it writes and reuses the SM runtimes and shadow storage of the launches
// before it, so allocs/op does not grow with the ops before it.
func gateWidthSwitch() (int64, error) {
	g, err := gateGraph()
	if err != nil {
		return 0, err
	}
	if g, err = g.Symmetrize(); err != nil {
		return 0, err
	}
	src := graph.LargestOutComponentSeed(g)
	d := simt.MustNewDevice(simt.DefaultConfig())
	dg := gpualgo.Upload(d, g)
	var opErr error
	allocs := testing.AllocsPerRun(8, func() {
		if opErr != nil {
			return
		}
		if _, opErr = gpualgo.BFS(d, dg, src, gpualgo.Options{K: 32}); opErr != nil {
			return
		}
		_, opErr = gpualgo.ConnectedComponents(d, dg, gpualgo.Options{K: 4})
	})
	return int64(allocs), opErr
}

// TestHotPathAllocGate is the allocation-regression gate: allocs/op of the
// five hot-path probes must stay within 25% (plus a small absolute slack
// for map-growth jitter) of the committed testdata/alloc_gate.json numbers.
// Regenerate after an intentional change with:
//
//	go test ./internal/bench -run TestHotPathAllocGate -update-alloc-gate
func TestHotPathAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	measured := map[string]int64{}
	if got, err := gateApplyUniform(); err != nil {
		t.Fatal(err)
	} else {
		measured["apply_uniform_small"] = got
	}
	if got, err := gateApplyParallel(); err != nil {
		t.Fatal(err)
	} else {
		measured["apply_parallel_small"] = got
	}
	if got, err := gateBFSSmall(); err != nil {
		t.Fatal(err)
	} else {
		measured["bfs_small"] = got
	}
	if got, err := gateCCSmall(); err != nil {
		t.Fatal(err)
	} else {
		measured["cc_small"] = got
	}
	if got, err := gateWidthSwitch(); err != nil {
		t.Fatal(err)
	} else {
		measured["width_switch_small"] = got
	}

	if *updateAllocGate {
		data, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocGatePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote gate numbers to %s: %v", allocGatePath, measured)
		return
	}
	raw, err := os.ReadFile(allocGatePath)
	if err != nil {
		t.Fatalf("missing %s (run with -update-alloc-gate to create): %v", allocGatePath, err)
	}
	var baseline map[string]int64
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	for name, got := range measured {
		base, ok := baseline[name]
		if !ok {
			t.Errorf("%s: no gate baseline in %s (run with -update-alloc-gate)", name, allocGatePath)
			continue
		}
		limit := base + base/4 + 64
		if got > limit {
			t.Errorf("%s: allocs/op regressed: %d > limit %d (baseline %d)",
				name, got, limit, base)
		} else {
			t.Logf("%s: allocs/op %d (baseline %d, limit %d)", name, got, base, limit)
		}
	}
}
