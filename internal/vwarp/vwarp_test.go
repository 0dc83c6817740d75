package vwarp

import (
	"testing"

	"maxwarp/internal/simt"
)

func testDevice(t *testing.T) *simt.Device {
	t.Helper()
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxWarpsPerSM = 8
	cfg.MaxBlocksPerSM = 4
	d, err := simt.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestForEachStaticCoversAllTasksOnce checks every task is visited exactly
// once for a range of K, grid shapes, and task counts (including tails).
func TestForEachStaticCoversAllTasksOnce(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		for _, numTasks := range []int32{0, 1, 31, 32, 33, 100, 1000} {
			d := testDevice(t)
			seen := d.AllocI32("seen", int(numTasks)+1)
			kernel := func(w *simt.WarpCtx) {
				ForEachStatic(w, k, numTasks, func(ts *Tasks) {
					one := make([]int32, ts.Groups)
					for g := range one {
						one[g] = 1
					}
					ts.AtomicAddGrouped(seen, ts.Task, one, nil, nil)
				})
			}
			if _, err := d.Launch(simt.Grid1D(256, 64), kernel); err != nil {
				t.Fatalf("k=%d n=%d: %v", k, numTasks, err)
			}
			for i := int32(0); i < numTasks; i++ {
				if got := seen.Data()[i]; got != 1 {
					t.Fatalf("k=%d n=%d: task %d visited %d times", k, numTasks, i, got)
				}
			}
		}
	}
}

func TestForEachDynamicCoversAllTasksOnce(t *testing.T) {
	for _, k := range []int{1, 4, 32} {
		for _, chunk := range []int32{1, 3, 8, 64} {
			const numTasks = 500
			d := testDevice(t)
			seen := d.AllocI32("seen", numTasks)
			counter := d.AllocI32("counter", 1)
			kernel := func(w *simt.WarpCtx) {
				ForEachDynamic(w, k, numTasks, counter, chunk, func(ts *Tasks) {
					one := make([]int32, ts.Groups)
					for g := range one {
						one[g] = 1
					}
					ts.AtomicAddGrouped(seen, ts.Task, one, nil, nil)
				})
			}
			if _, err := d.Launch(simt.Grid1D(128, 64), kernel); err != nil {
				t.Fatalf("k=%d chunk=%d: %v", k, chunk, err)
			}
			for i := 0; i < numTasks; i++ {
				if got := seen.Data()[i]; got != 1 {
					t.Fatalf("k=%d chunk=%d: task %d visited %d times", k, chunk, i, got)
				}
			}
		}
	}
}

func TestSISDRunsOncePerGroup(t *testing.T) {
	d := testDevice(t)
	const numTasks = 64
	out := d.AllocI32("out", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 8, numTasks, func(ts *Tasks) {
			vals := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = ts.Task[g] * 10 })
			ts.StoreI32Grouped(out, ts.Task, vals, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 64), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != int32(i*10) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*10)
		}
	}
}

func TestLoadI32Grouped(t *testing.T) {
	d := testDevice(t)
	const numTasks = 48
	src := d.AllocI32("src", numTasks)
	for i := range src.Data() {
		src.Data()[i] = int32(i * 7)
	}
	out := d.AllocI32("out", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 4, numTasks, func(ts *Tasks) {
			got := make([]int32, ts.Groups)
			ts.LoadI32Grouped(src, ts.Task, got)
			ts.StoreI32Grouped(out, ts.Task, got, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks, 32), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != int32(i*7) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*7)
		}
	}
}

func TestSIMDRangeStridesAllElements(t *testing.T) {
	// Tasks own variable-length segments of a data array; the SIMD phase must
	// touch each element exactly once (verified with atomic increments).
	d := testDevice(t)
	segLens := []int32{0, 1, 5, 16, 33, 7, 64, 2}
	starts := make([]int32, len(segLens))
	total := int32(0)
	for i, ln := range segLens {
		starts[i] = total
		total += ln
	}
	startBuf := d.UploadI32("starts", starts)
	lenBuf := d.UploadI32("lens", segLens)
	touched := d.AllocI32("touched", int(total))
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 8, int32(len(segLens)), func(ts *Tasks) {
			start := make([]int32, ts.Groups)
			ln := make([]int32, ts.Groups)
			end := make([]int32, ts.Groups)
			ts.LoadI32Grouped(startBuf, ts.Task, start)
			ts.LoadI32Grouped(lenBuf, ts.Task, ln)
			ts.SISD(1, func(g int) { end[g] = start[g] + ln[g] })
			ts.SIMDRange(start, end, func(j []int32) {
				one := ts.W.ConstI32(1)
				ts.W.AtomicAddI32(touched, j, one, nil)
			})
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 32), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range touched.Data() {
		if v != 1 {
			t.Fatalf("element %d touched %d times", i, v)
		}
	}
}

func TestStoreI32GroupedPredicate(t *testing.T) {
	d := testDevice(t)
	const numTasks = 32
	out := d.AllocI32("out", numTasks)
	out.Fill(-1)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 4, numTasks, func(ts *Tasks) {
			vals := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = 99 })
			ts.StoreI32Grouped(out, ts.Task, vals, func(g int) bool { return ts.Task[g]%2 == 0 })
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks, 32), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		want := int32(-1)
		if i%2 == 0 {
			want = 99
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestAtomicAddGroupedOldValues(t *testing.T) {
	d := testDevice(t)
	counter := d.AllocI32("counter", 1)
	slots := d.AllocI32("slots", 64)
	slots.Fill(-1)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 8, 64, func(ts *Tasks) {
			zero := make([]int32, ts.Groups)
			one := make([]int32, ts.Groups)
			old := make([]int32, ts.Groups)
			for g := range one {
				one[g] = 1
			}
			ts.AtomicAddGrouped(counter, zero, one, old, nil)
			ts.StoreI32Grouped(slots, ts.Task, old, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 64), kernel); err != nil {
		t.Fatal(err)
	}
	if counter.Data()[0] != 64 {
		t.Fatalf("counter = %d, want 64", counter.Data()[0])
	}
	// Every task got a distinct slot in [0,64).
	seen := make([]bool, 64)
	for i, s := range slots.Data() {
		if s < 0 || s >= 64 || seen[s] {
			t.Fatalf("task %d got bad/duplicate slot %d", i, s)
		}
		seen[s] = true
	}
}

func TestDeferAndProcessDeferred(t *testing.T) {
	d := testDevice(t)
	const numTasks = 128
	work := d.AllocI32("work", numTasks) // per-task work amount
	for i := range work.Data() {
		work.Data()[i] = 1
	}
	// Heavy outliers.
	work.Data()[5] = 100
	work.Data()[77] = 200
	work.Data()[99] = 150
	q := NewOutlierQueue(d, "q", numTasks)
	processed := d.AllocI32("processed", numTasks)

	mainPass := func(w *simt.WarpCtx) {
		ForEachStatic(w, 4, numTasks, func(ts *Tasks) {
			amt := make([]int32, ts.Groups)
			ts.LoadI32Grouped(work, ts.Task, amt)
			heavy := func(g int) bool { return amt[g] > 50 }
			ts.Defer(q, heavy)
			vals := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = 1 })
			ts.StoreI32Grouped(processed, ts.Task, vals, func(g int) bool { return !heavy(g) })
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks, 64), mainPass); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 3 {
		t.Fatalf("deferred %d tasks, want 3", q.Len())
	}
	// Read the queue length on the host: Data must not be touched while a
	// launch is in flight.
	numDeferred := int32(q.Len())
	deferredPass := func(w *simt.WarpCtx) {
		ForEachDeferred(w, w.Width(), q, numDeferred, func(ts *Tasks) {
			vals := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = 2 })
			ts.StoreI32Grouped(processed, ts.Task, vals, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(q.Len()*32, 64), deferredPass); err != nil {
		t.Fatal(err)
	}
	for i, v := range processed.Data() {
		want := int32(1)
		if i == 5 || i == 77 || i == 99 {
			want = 2
		}
		if v != want {
			t.Fatalf("processed[%d] = %d, want %d", i, v, want)
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not clear queue")
	}
}

func TestSmallerKHasHigherUsefulUtilizationOnUniformWork(t *testing.T) {
	// With uniform tiny segments (length 2), small K wastes fewer lanes:
	// useful utilization must decrease monotonically-ish as K grows.
	lens := make([]int32, 256)
	for i := range lens {
		lens[i] = 2
	}
	var prev float64 = -1
	for _, k := range []int{2, 8, 32} {
		d := testDevice(t)
		lenBuf := d.UploadI32("lens", lens)
		_ = d.AllocI32("sink", len(lens))
		kernel := func(w *simt.WarpCtx) {
			ForEachStatic(w, k, int32(len(lens)), func(ts *Tasks) {
				ln := make([]int32, ts.Groups)
				ts.LoadI32Grouped(lenBuf, ts.Task, ln)
				start := make([]int32, ts.Groups)
				ts.SISD(1, func(g int) { start[g] = 0 })
				ts.SIMDRange(start, ln, func(j []int32) {
					ts.W.Apply(1, func(lane int) {})
				})
			})
		}
		stats, err := d.Launch(simt.Grid1D(256, 64), kernel)
		if err != nil {
			t.Fatal(err)
		}
		u := stats.UsefulUtilization()
		if prev >= 0 && u > prev+0.05 {
			t.Fatalf("useful utilization rose from %.3f to %.3f as K grew to %d", prev, u, k)
		}
		prev = u
	}
}

func TestInvalidKPanicsAsLaunchError(t *testing.T) {
	d := testDevice(t)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 3, 10, func(ts *Tasks) {}) // 3 does not divide 32
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel); err == nil {
		t.Fatal("invalid K accepted")
	}
	kernel2 := func(w *simt.WarpCtx) {
		counter := 0
		_ = counter
		ForEachDynamic(w, 4, 10, nil, 0, func(ts *Tasks) {})
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel2); err == nil {
		t.Fatal("zero chunk accepted")
	}
}

func TestGroupHelpers(t *testing.T) {
	d := testDevice(t)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 8, 4, func(ts *Tasks) {
			if ts.Group(9) != 1 || ts.LaneInGroup(9) != 1 {
				panic("group math wrong")
			}
			if ts.Groups != 4 {
				panic("groups wrong")
			}
		})
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel); err != nil {
		t.Fatal(err)
	}
}

func TestOutlierQueueSaturation(t *testing.T) {
	// Capacity 2, 5 outliers: Len clamps to capacity, no crash, no OOB.
	d := testDevice(t)
	q := NewOutlierQueue(d, "q", 2)
	kernel := func(w *simt.WarpCtx) {
		ForEachStatic(w, 4, 5, func(ts *Tasks) {
			ts.Defer(q, func(g int) bool { return true })
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 64), kernel); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("saturated queue Len = %d, want 2", q.Len())
	}
}

func TestForEachStaticBlockedCoversAllTasksOnce(t *testing.T) {
	for _, k := range []int{1, 4, 32} {
		for _, numTasks := range []int32{0, 1, 33, 500, 1000} {
			d := testDevice(t)
			seen := d.AllocI32("seen", int(numTasks)+1)
			kernel := func(w *simt.WarpCtx) {
				ForEachStaticBlocked(w, k, numTasks, func(ts *Tasks) {
					one := make([]int32, ts.Groups)
					for g := range one {
						one[g] = 1
					}
					ts.AtomicAddGrouped(seen, ts.Task, one, nil, nil)
				})
			}
			if _, err := d.Launch(simt.Grid1D(256, 64), kernel); err != nil {
				t.Fatalf("k=%d n=%d: %v", k, numTasks, err)
			}
			for i := int32(0); i < numTasks; i++ {
				if got := seen.Data()[i]; got != 1 {
					t.Fatalf("k=%d n=%d: task %d visited %d times", k, numTasks, i, got)
				}
			}
		}
	}
}
