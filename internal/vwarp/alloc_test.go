package vwarp

import (
	"testing"

	"maxwarp/internal/simt"
)

// TestHelpersAllocateNothingPerRound checks that a body built from every
// closure-taking helper costs no heap allocation per ForEach round: a launch
// of one warp at K=4 over 640 tasks (80 rounds) allocates exactly as much as
// one over 64 tasks (8 rounds), under the stride, dynamic and deferring
// schedules. Every store lands in a 16-cell buffer or the 16-slot outlier
// queue, so both launches materialize the same shadow pages. It averages
// over 20 launches: a launch allocates about a dozen objects, so a few
// stray allocations by the runtime (seen under -race, where a launch's
// SM goroutines block on channels) truncate away, while an allocation per
// round adds at least 72 to every launch.
func TestHelpersAllocateNothingPerRound(t *testing.T) {
	const k, cells, maxTasks = 4, 16, 640
	// Task v's row holds v%5 entries, and every neighbor is below cells.
	rowPtr := make([]int32, maxTasks+1)
	for v := 0; v < maxTasks; v++ {
		rowPtr[v+1] = rowPtr[v] + int32(v%5)
	}
	nbrs := make([]int32, rowPtr[maxTasks])
	for j := range nbrs {
		nbrs[j] = int32(j % cells)
	}
	for _, mode := range []string{"stride", "dynamic", "defer"} {
		t.Run(mode, func(t *testing.T) {
			d := testDevice(t)
			rows := d.UploadI32("rows", rowPtr)
			col := d.UploadI32("col", nbrs)
			outI := d.AllocI32("outI", cells)
			outA := d.AllocI32("outA", cells)
			outF := d.AllocF32("outF", cells)
			sched := Schedule{K: k}
			var q *OutlierQueue
			switch mode {
			case "dynamic":
				sched.Counter, sched.Chunk = d.AllocI32("counter", 1), 8
			case "defer":
				q = NewOutlierQueue(d, "q", cells, 3)
				sched.Outliers = q
			}
			kernel := func(numTasks int32) simt.Kernel {
				return func(w *simt.WarpCtx) {
					idx := w.VecI32()
					acc := w.VecI32()
					val := w.VecF32()
					one := w.ConstI32(1)
					ForEach(w, sched, numTasks, func(ts *Tasks) {
						ts.SISD(1, func(g int) {
							idx[g] = ts.Task[g] % cells
							acc[g] = 0
							val[g] = float32(ts.Task[g])
						})
						ts.Row(rows, ts.Task)
						ts.Mask(func(g int) bool { return ts.End[g] > ts.Start[g] }, func() {
							ts.Edges(col, func(_, nbr []int32) { w.StoreI32(outI, nbr, one) })
						})
						ts.GroupLoop(ts.Start, ts.End, func([]int32) {
							ts.SISD(1, func(g int) { acc[g]++ })
						})
						ts.StoreI32Grouped(outI, idx, acc, func(g int) bool { return acc[g] > 1 })
						ts.AtomicAddGrouped(outA, idx, one, nil, nil)
						ts.StoreF32Grouped(outF, idx, val, nil)
					})
				}
			}
			lc := simt.LaunchConfig{Blocks: 1, ThreadsPerBlock: d.Config().WarpWidth}
			allocs := func(numTasks int32) float64 {
				kern := kernel(numTasks)
				return testing.AllocsPerRun(20, func() {
					if sched.Counter != nil {
						sched.Counter.Data()[0] = 0
					}
					if q != nil {
						q.Reset()
					}
					if _, err := d.Launch(lc, kern); err != nil {
						t.Fatal(err)
					}
					if q != nil {
						q.Rerun(true)
						_, err := d.Launch(lc, kern)
						q.Rerun(false)
						if err != nil {
							t.Fatal(err)
						}
					}
				})
			}
			few, many := allocs(64), allocs(maxTasks)
			if few != many {
				t.Errorf("allocs per launch: %v over 8 rounds, %v over 80 rounds", few, many)
			}
			if q != nil && q.Len() != cells {
				t.Errorf("deferred %d tasks, want a full queue of %d", q.Len(), cells)
			}
		})
	}
}

// TestWidthChangeReusesTasks checks that a warp context keeps one Tasks
// across virtual warp widths: a one-warp launch at K=4 followed by one at
// K=32 allocates exactly as much as two launches at K=4, so a device that
// alternates widths (a deferring run's rerun pass, or served queries tuned
// to different graphs) does not rebuild the Tasks at every switch. It
// averages over 20 pairs, so a stray allocation from another goroutine
// truncates away, while a rebuild adds tens to every pair.
func TestWidthChangeReusesTasks(t *testing.T) {
	const tasks = 64
	d := testDevice(t)
	out := d.AllocI32("out", tasks)
	kernel := func(k int) simt.Kernel {
		return func(w *simt.WarpCtx) {
			ForEach(w, Schedule{K: k}, tasks, func(ts *Tasks) {
				ts.StoreI32Grouped(out, ts.Task, ts.Task, nil)
			})
		}
	}
	lc := simt.LaunchConfig{Blocks: 1, ThreadsPerBlock: d.Config().WarpWidth}
	allocs := func(first, second int) float64 {
		a, b := kernel(first), kernel(second)
		return testing.AllocsPerRun(20, func() {
			for _, kern := range []simt.Kernel{a, b} {
				if _, err := d.Launch(lc, kern); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	same, switched := allocs(4, 4), allocs(4, 32)
	if same != switched {
		t.Errorf("allocs per launch pair: %v at K=4 then K=4, %v at K=4 then K=32", same, switched)
	}
}
