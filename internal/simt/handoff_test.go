package simt

import (
	"testing"
	"unsafe"
)

// TestHandoffsDoNotRise pins the simulator's host cost per step: the number
// of execution-token transfers between goroutines (loop→warp, warp→warp,
// warp→loop) on successful launches. The ceilings are the counts of the
// scheduler whose warps run ahead through ALU-class instructions and loads
// from frozen buffers; one step per instruction cost 2011–2048 on the mixed
// kernel and 12844–12851 on the power-law grid, and yielding at every load
// cost 1354–1477 on the read-only kernel. A scheduler change may lower them
// but never raise them.
func TestHandoffsDoNotRise(t *testing.T) {
	for _, f := range []struct {
		name string
		run  func(parallelSMs int) *Device
		max  [3]int64 // at ParallelSMs 1, 2 and 8
	}{
		{"mixedKernel", func(p int) *Device {
			d, _, _, _, _, _ := runMixedDevice(t, p)
			return d
		}, [3]int64{1153, 1160, 1160}},
		{"powerLawGridKernel", func(p int) *Device {
			d, _, _, _ := runPowerLawDevice(t, p)
			return d
		}, [3]int64{935, 801, 801}},
		{"readOnlyKernel", func(p int) *Device {
			d, ro, data, hist, rof, acc := readOnlyDevice(p)
			if _, err := d.Launch(readOnlyGrid, readOnlyKernel(ro, data, hist, rof, acc)); err != nil {
				t.Fatal(err)
			}
			return d
		}, [3]int64{960, 888, 888}},
	} {
		for i, mode := range []int{1, 2, 8} {
			if got := f.run(mode).Handoffs(); got > f.max[i] {
				t.Errorf("%s ParallelSMs=%d: %d handoffs, ceiling %d", f.name, mode, got, f.max[i])
			}
		}
	}
}

// TestRequestSize: the segment-log fields of a request fill its padding, so
// the run-ahead queue holds 40-byte entries.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got != 40 {
		t.Errorf("request is %d bytes, want 40", got)
	}
}
