package vwarp

import (
	"testing"

	"maxwarp/internal/simt"
)

func TestGroupLoopVisitsEveryPositionOnce(t *testing.T) {
	// Each task owns a range of positions; GroupLoop must visit each exactly
	// once, per group, in order.
	d := testDevice(t)
	lens := []int32{3, 0, 7, 1, 12, 5, 2, 9}
	starts := make([]int32, len(lens))
	total := int32(0)
	for i, ln := range lens {
		starts[i] = total
		total += ln
	}
	startBuf := d.UploadI32("starts", starts)
	lenBuf := d.UploadI32("lens", lens)
	visits := d.AllocI32("visits", int(total))
	orderOK := d.AllocI32("orderOK", 1)
	orderOK.Data()[0] = 1
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 8}, int32(len(lens)), func(ts *Tasks) {
			start := make([]int32, ts.Groups)
			ln := make([]int32, ts.Groups)
			end := make([]int32, ts.Groups)
			prev := make([]int32, ts.Groups)
			ts.LoadI32Grouped(startBuf, ts.Task, start)
			ts.LoadI32Grouped(lenBuf, ts.Task, ln)
			ts.SISD(1, func(g int) {
				end[g] = start[g] + ln[g]
				prev[g] = start[g] - 1
			})
			ts.GroupLoop(start, end, func(pos []int32) {
				one := make([]int32, ts.Groups)
				for g := range one {
					one[g] = 1
				}
				ts.AtomicAddGrouped(visits, pos, one, nil, nil)
				ts.SISD(1, func(g int) {
					if pos[g] != prev[g]+1 {
						panic("GroupLoop out of order")
					}
					prev[g] = pos[g]
				})
			})
		})
	}
	if _, err := d.Launch(simt.Grid1D(len(lens)*8, 64), kernel); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits.Data() {
		if v != 1 {
			t.Fatalf("position %d visited %d times", i, v)
		}
	}
}

func TestGroupLoopEmptyRanges(t *testing.T) {
	d := testDevice(t)
	touched := d.AllocI32("touched", 1)
	kernel := func(w *simt.WarpCtx) {
		ForEach(w, Schedule{K: 4}, 8, func(ts *Tasks) {
			start := make([]int32, ts.Groups)
			end := make([]int32, ts.Groups) // all empty
			ts.GroupLoop(start, end, func(pos []int32) {
				one := ts.W.ConstI32(1)
				ts.W.StoreI32(touched, ts.W.ConstI32(0), one)
			})
		})
	}
	if _, err := d.Launch(simt.Grid1D(64, 64), kernel); err != nil {
		t.Fatal(err)
	}
	if touched.Data()[0] != 0 {
		t.Fatal("GroupLoop body ran on empty ranges")
	}
}
