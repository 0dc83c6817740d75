package vwarp

import (
	"math"
	"testing"

	"maxwarp/internal/simt"
)

func TestMaskNarrowsToPredicateGroups(t *testing.T) {
	d := testDevice(t)
	const numTasks = 32
	out := d.AllocI32("out", numTasks)
	out.Fill(-1)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4}, numTasks, func(ts *Tasks) {
			vals := make([]int32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = ts.Task[g] * 2 })
			ts.Mask(func(g int) bool { return ts.Task[g]%3 == 0 }, func() {
				ts.StoreI32Grouped(out, ts.Task, vals, nil)
			})
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks*4, 64), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		want := int32(-1)
		if i%3 == 0 {
			want = int32(i * 2)
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestStoreF32GroupedAndReduceAddF32(t *testing.T) {
	d := testDevice(t)
	const numTasks = 16
	out := d.AllocF32("out", numTasks)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 8}, numTasks, func(ts *Tasks) {
			// Each lane contributes its lane-in-group index; group sum of
			// 0..7 = 28, scaled by the task id via SISD.
			contrib := w.VecF32()
			w.Apply(1, func(lane int) { contrib[lane] = float32(ts.LaneInGroup(lane)) })
			sums := make([]float32, ts.Groups)
			ts.ReduceAddF32(contrib, sums)
			vals := make([]float32, ts.Groups)
			ts.SISD(1, func(g int) { vals[g] = sums[g] * float32(ts.Task[g]) })
			ts.StoreF32Grouped(out, ts.Task, vals, func(g int) bool { return ts.Task[g] != 3 })
		})
	}
	if _, err := d.Launch(simt.Grid1D(numTasks*8, 64), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		want := float32(28 * i)
		if i == 3 {
			want = 0 // excluded by predicate
		}
		if math.Abs(float64(v-want)) > 1e-6 {
			t.Fatalf("out[%d] = %f, want %f", i, v, want)
		}
	}
}

func TestReduceAddI32Grouped(t *testing.T) {
	d := testDevice(t)
	out := d.AllocI32("out", 8)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4}, 8, func(ts *Tasks) {
			ones := w.ConstI32(1)
			counts := make([]int32, ts.Groups)
			ts.ReduceAddI32(ones, counts)
			ts.StoreI32Grouped(out, ts.Task, counts, nil)
		})
	}
	if _, err := d.Launch(simt.Grid1D(32, 32), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != 4 { // K lanes each contributed 1
			t.Fatalf("out[%d] = %d, want 4", i, v)
		}
	}
}

func TestNewOutlierQueueMinimumCapacity(t *testing.T) {
	d := testDevice(t)
	q := NewOutlierQueue(d, "q", 0, 1)
	if q.Items.Len() != 1 {
		t.Fatalf("zero-capacity queue should clamp to 1, got %d", q.Items.Len())
	}
}
