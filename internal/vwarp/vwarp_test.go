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

// checkCoversAllTasksOnce launches ForEach under the schedule sched builds
// for each K and task count, empty sets and tails included, and checks that
// every task is visited exactly once and no task id >= n is dealt.
func checkCoversAllTasksOnce(t *testing.T, sched func(d *simt.Device, k int) Schedule) {
	t.Helper()
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		for _, numTasks := range []int32{0, 1, 31, 32, 33, 100, 500, 1000} {
			d := testDevice(t)
			seen := d.AllocI32("seen", int(numTasks)+1)
			s := sched(d, k)
			kernel := func(w *simt.WarpCtx) {
				ForEach(w, s, numTasks, func(ts *Tasks) {
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
			for i := int32(0); i <= numTasks; i++ {
				want := int32(1)
				if i == numTasks {
					want = 0 // the guard cell past the last task
				}
				if got := seen.Data()[i]; got != want {
					t.Fatalf("k=%d n=%d: task %d visited %d times", k, numTasks, i, got)
				}
			}
		}
	}
}

// TestForEachStaticCoversAllTasksOnce checks the default stride schedule.
func TestForEachStaticCoversAllTasksOnce(t *testing.T) {
	checkCoversAllTasksOnce(t, func(_ *simt.Device, k int) Schedule {
		return Schedule{K: k}
	})
}

// TestForEachStaticBlockedCoversAllTasksOnce checks the blocked schedule.
func TestForEachStaticBlockedCoversAllTasksOnce(t *testing.T) {
	checkCoversAllTasksOnce(t, func(_ *simt.Device, k int) Schedule {
		return Schedule{K: k, Blocked: true}
	})
}

// TestForEachDynamicCoversAllTasksOnce checks the dynamic schedule, which
// claims chunks of tasks from a counter, at several chunk sizes.
func TestForEachDynamicCoversAllTasksOnce(t *testing.T) {
	for _, chunk := range []int32{1, 3, 8, 64} {
		t.Logf("chunk=%d", chunk)
		checkCoversAllTasksOnce(t, func(d *simt.Device, k int) Schedule {
			return Schedule{K: k, Counter: d.AllocI32("counter", 1), Chunk: chunk}
		})
	}
}

func TestSISDRunsOncePerGroup(t *testing.T) {
	d := testDevice(t)
	const numTasks = 64
	out := d.AllocI32("out", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 8}, numTasks, func(ts *Tasks) {
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
	// src doubles as a CSR row-pointer array: row i spans [i*i, (i+1)*(i+1)).
	d := testDevice(t)
	const numTasks = 48
	src := d.AllocI32("src", numTasks+1)
	for i := range src.Data() {
		src.Data()[i] = int32(i * i)
	}
	out := d.AllocI32("out", numTasks)
	rowLen := d.AllocI32("rowLen", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4}, numTasks, func(ts *Tasks) {
			got := make([]int32, ts.Groups)
			ts.LoadI32Grouped(src, ts.Task, got)
			ts.StoreI32Grouped(out, ts.Task, got, nil)
			ts.Row(src, ts.Task)
			ts.SISD(1, func(g int) { got[g] = ts.End[g] - ts.Start[g] })
			ts.StoreI32Grouped(rowLen, ts.Task, got, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks, 32), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != int32(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	for i, v := range rowLen.Data() {
		if v != int32(2*i+1) {
			t.Fatalf("Row length of %d = %d, want %d", i, v, 2*i+1)
		}
	}
}

func TestSIMDRangeStridesAllElements(t *testing.T) {
	// Tasks own variable-length rows; Edges must stride each row's positions
	// exactly once and hand the body col[j] as the neighbor (both verified
	// with atomic increments; col reverses the positions, so nbr != j).
	d := testDevice(t)
	segLens := []int32{0, 1, 5, 16, 33, 7, 64, 2}
	rowPtr := make([]int32, len(segLens)+1)
	for i, ln := range segLens {
		rowPtr[i+1] = rowPtr[i] + ln
	}
	total := int(rowPtr[len(segLens)])
	rev := make([]int32, total)
	for j := range rev {
		rev[j] = int32(total - 1 - j)
	}
	rows := d.UploadI32("rows", rowPtr)
	col := d.UploadI32("col", rev)
	touched := d.AllocI32("touched", total)
	named := d.AllocI32("named", total)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 8}, int32(len(segLens)), func(ts *Tasks) {
			ts.Row(rows, ts.Task)
			one := ts.W.ConstI32(1)
			//kernelcheck:ignore divergence — variable row lengths are this test's point
			ts.Edges(col, func(j, nbr []int32) {
				ts.W.AtomicAddI32(touched, j, one, nil)
				//kernelcheck:ignore atomicserial — col is a permutation, so no two lanes collide
				ts.W.AtomicAddI32(named, nbr, one, nil)
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
	for i, v := range named.Data() {
		if v != 1 {
			t.Fatalf("neighbor %d named %d times", i, v)
		}
	}
}

// TestGroupedLoadsChargeAlike requires the float32 grouped load to charge
// exactly what the int32 one does for the same indices: a replicated load
// counts one useful lane per active group, whatever the element type.
func TestGroupedLoadsChargeAlike(t *testing.T) {
	const numTasks = 64
	// run allocates the loaded buffer on a fresh device, so both element
	// types sit at the same address, and launches one grouped load per task.
	run := func(body func(d *simt.Device) func(ts *Tasks)) *simt.LaunchStats {
		t.Helper()
		d := testDevice(t)
		load := body(d)
		kernel := func(w *simt.WarpCtx) { ForEach(w, Schedule{K: 8}, numTasks, load) }
		stats, err := d.Launch(simt.Grid1D(numTasks*8, 64), kernel)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	i32 := run(func(d *simt.Device) func(ts *Tasks) {
		buf := d.AllocI32("buf", numTasks)
		return func(ts *Tasks) { ts.LoadI32Grouped(buf, ts.Task, make([]int32, ts.Groups)) }
	})
	f32 := run(func(d *simt.Device) func(ts *Tasks) {
		buf := d.AllocF32("buf", numTasks)
		return func(ts *Tasks) { ts.LoadF32Grouped(buf, ts.Task, make([]float32, ts.Groups)) }
	})
	type counters struct{ instr, active, useful, memOps, memTxns, cycles int64 }
	of := func(s *simt.LaunchStats) counters {
		return counters{s.Instructions, s.ActiveLaneOps, s.UsefulLaneOps, s.MemOps, s.MemTxns, s.Cycles}
	}
	if of(i32) != of(f32) {
		t.Fatalf("grouped loads charge differently: int32 %+v, float32 %+v", of(i32), of(f32))
	}
}

func TestStoreI32GroupedPredicate(t *testing.T) {
	d := testDevice(t)
	const numTasks = 32
	out := d.AllocI32("out", numTasks)
	out.Fill(-1)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4}, numTasks, func(ts *Tasks) {
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
		ForEach(w, Schedule{K: 8}, 64, func(ts *Tasks) {
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
	// Row i has length 1 except the three heavy outliers; col is the
	// identity, so Edges' neighbor is the edge index itself.
	d := testDevice(t)
	const numTasks = 128
	heavy := map[int]int32{5: 100, 77: 200, 99: 150}
	rowPtr := make([]int32, numTasks+1)
	for i := 0; i < numTasks; i++ {
		ln, ok := heavy[i]
		if !ok {
			ln = 1
		}
		rowPtr[i+1] = rowPtr[i] + ln
	}
	m := int(rowPtr[numTasks])
	ident := make([]int32, m)
	for i := range ident {
		ident[i] = int32(i)
	}
	rows := d.UploadI32("rows", rowPtr)
	col := d.UploadI32("col", ident)
	q := NewOutlierQueue(d, "q", numTasks, 50)
	width := d.AllocI32("width", numTasks) // the K each task ran at
	touched := d.AllocI32("touched", m)

	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4, Outliers: q}, numTasks, func(ts *Tasks) {
			ts.Row(rows, ts.Task)
			k := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { k[g] = int32(ts.K) })
			ts.StoreI32Grouped(width, ts.Task, k, nil)
			one := w.ConstI32(1)
			//kernelcheck:ignore divergence,atomicserial — long rows and per-edge counters are this test's point
			ts.Edges(col, func(_, nbr []int32) { w.AtomicAddI32(touched, nbr, one, nil) })
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks, 64), kernel); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 3 {
		t.Fatalf("deferred %d tasks, want 3", q.Len())
	}
	// The rerun pass launches the same kernel, one warp per queued task.
	q.Rerun(true)
	_, err := d.Launch(simt.Grid1D(q.Len()*32, 64), kernel)
	q.Rerun(false)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range width.Data() {
		want := int32(4)
		if _, ok := heavy[i]; ok {
			want = 32
		}
		if v != want {
			t.Fatalf("task %d ran at K=%d, want %d", i, v, want)
		}
	}
	for j, v := range touched.Data() {
		if v != 1 {
			t.Fatalf("edge %d touched %d times, want 1", j, v)
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
		rowPtr := make([]int32, len(lens)+1)
		for i, ln := range lens {
			rowPtr[i+1] = rowPtr[i] + ln
		}
		rows := d.UploadI32("rows", rowPtr)
		col := d.AllocI32("col", int(rowPtr[len(lens)]))
		kernel := func(w *simt.WarpCtx) {
			ForEach(w, Schedule{K: k}, int32(len(lens)), func(ts *Tasks) {
				ts.Row(rows, ts.Task)
				//kernelcheck:ignore divergence — the rows are uniform; the analyzer cannot know it
				ts.Edges(col, func(_, nbr []int32) {
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
		ForEach(w, Schedule{K: 3}, 10, func(ts *Tasks) {}) // 3 does not divide 32
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel); err == nil {
		t.Fatal("invalid K accepted")
	}
	counter := d.AllocI32("counter", 1)
	kernel2 := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4, Counter: counter}, 10, func(ts *Tasks) {})
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel2); err == nil {
		t.Fatal("zero chunk accepted")
	}
}

func TestGroupHelpers(t *testing.T) {
	d := testDevice(t)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 8}, 4, func(ts *Tasks) {
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
	// Capacity 2, 5 outliers: Len clamps to capacity, and the three tasks
	// that find the queue full run inline, so every task runs exactly once.
	d := testDevice(t)
	const numTasks = 5
	rowPtr := make([]int32, numTasks+1)
	for i := range rowPtr {
		rowPtr[i] = int32(4 * i)
	}
	rows := d.UploadI32("rows", rowPtr)
	q := NewOutlierQueue(d, "q", 2, 1)
	width := d.AllocI32("width", numTasks)
	runs := d.AllocI32("runs", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4, Outliers: q}, numTasks, func(ts *Tasks) {
			ts.Row(rows, ts.Task)
			k := make([]int32, ts.Groups)
			ones := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { k[g], ones[g] = int32(ts.K), 1 })
			ts.StoreI32Grouped(width, ts.Task, k, nil)
			ts.AtomicAddGrouped(runs, ts.Task, ones, nil, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 64), kernel); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("saturated queue Len = %d, want 2", q.Len())
	}
	q.Rerun(true)
	_, err := d.Launch(simt.Grid1D(q.Len()*32, 64), kernel)
	q.Rerun(false)
	if err != nil {
		t.Fatal(err)
	}
	byK := map[int32]int{}
	for i, v := range runs.Data() {
		if v != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, v)
		}
		byK[width.Data()[i]]++
	}
	if byK[32] != 2 || byK[4] != 3 {
		t.Fatalf("tasks by K = %v, want 2 deferred (K=32) and 3 inline (K=4)", byK)
	}
}
