// Custom kernel: using the simulator's warp-level API directly (the same
// API all bundled algorithms are built on — see docs/PROGRAMMING.md). The
// kernel computes a degree histogram with the canonical CUDA privatization
// pattern: ballot-aggregated per-warp counts go into per-warp private rows
// of shared memory (no races by construction), a block barrier, then one
// warp reduces the rows and flushes to global memory with atomics.
package main

import (
	"fmt"
	"log"
	"math/bits"

	"maxwarp"
)

const bins = 16

func degreeBin(deg int32) int32 {
	b := int32(0)
	for d := deg; d > 1 && b < bins-1; d >>= 1 {
		b++
	}
	return b
}

func main() {
	g, err := maxwarp.RMAT(12, 8, maxwarp.DefaultRMATParams, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s\n\n", maxwarp.Stats(g))

	dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
	if err != nil {
		log.Fatal(err)
	}
	n := g.NumVertices()
	// The kernel only reads the row pointers: frozen, their loads let a warp
	// run on without yielding to the scheduler, and a stray store faults.
	rowPtr := dev.UploadI32("rowptr", g.RowPtr).Freeze()
	hist := dev.AllocI32("hist", bins)

	const threadsPerBlock = 256
	warpsPerBlock := threadsPerBlock / dev.Config().WarpWidth

	kernel := func(w *maxwarp.WarpCtx) {
		// Per-warp private rows: warp i owns sh[i*bins : (i+1)*bins].
		sh := w.SharedI32("bins", bins*warpsPerBlock)
		tid := w.GlobalThreadIDs()
		lane := w.LaneIDs()
		myRow := int32(w.WarpInBlock() * bins)

		// Phase 1: classify this warp's vertices and aggregate with ballots.
		bin := w.ConstI32(-1)
		w.If(func(l int) bool { return tid[l] < int32(n) }, func() {
			lo := w.VecI32()
			hi := w.VecI32()
			w.LoadI32(rowPtr, tid, lo)
			next := w.VecI32()
			w.Apply(1, func(l int) { next[l] = tid[l] + 1 })
			w.LoadI32(rowPtr, next, hi)
			w.Apply(2, func(l int) { bin[l] = degreeBin(hi[l] - lo[l]) })
		}, nil)
		for b := int32(0); b < bins; b++ {
			mask := w.Ballot(func(l int) bool { return bin[l] == b })
			cnt := int32(bits.OnesCount64(mask))
			if cnt == 0 {
				continue
			}
			// Lane 0 owns the warp's private row: no races anywhere.
			w.If(func(l int) bool { return lane[l] == 0 }, func() {
				idx := w.ConstI32(myRow + b)
				cur := w.VecI32()
				w.LoadSharedI32(sh, idx, cur)
				w.Apply(1, func(l int) { cur[l] += cnt })
				w.StoreSharedI32(sh, idx, cur)
			}, nil)
		}
		w.SyncThreads()

		// Phase 2: warp 0 sums the private rows and flushes to global.
		if w.WarpInBlock() == 0 {
			w.If(func(l int) bool { return lane[l] < bins }, func() {
				total := w.ConstI32(0)
				idx := w.VecI32()
				row := w.VecI32()
				for r := 0; r < warpsPerBlock; r++ {
					w.Apply(1, func(l int) { idx[l] = int32(r*bins) + lane[l] })
					w.LoadSharedI32(sh, idx, row)
					w.Apply(1, func(l int) { total[l] += row[l] })
				}
				w.AtomicAddI32(hist, lane, total, nil)
			}, nil)
		}
	}

	stats, err := dev.Launch(maxwarp.LaunchConfig{
		Blocks:          (n + threadsPerBlock - 1) / threadsPerBlock,
		ThreadsPerBlock: threadsPerBlock,
	}, kernel)
	if err != nil {
		log.Fatal(err)
	}

	// Exact host-side count for verification.
	exact := make([]int64, bins)
	for v := 0; v < n; v++ {
		exact[degreeBin(g.Degree(int32(v)))]++
	}
	fmt.Println("bin  degree-range      kernel   exact")
	lo := 1
	for b := 0; b < bins; b++ {
		rangeLo := lo
		if b == 0 {
			rangeLo = 0 // bin 0 also holds isolated (degree-0) vertices
		}
		marker := ""
		if int64(hist.Data()[b]) != exact[b] {
			marker = "  MISMATCH"
		}
		fmt.Printf("%-4d %6d-%-8d %8d %7d%s\n", b, rangeLo, lo*2-1, hist.Data()[b], exact[b], marker)
		lo *= 2
	}
	fmt.Printf("\nlaunch: %s\n", stats)
}
