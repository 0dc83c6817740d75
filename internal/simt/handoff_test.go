package simt

import "testing"

// TestHandoffsDoNotRise pins the simulator's host cost per step: the number
// of execution-token transfers between goroutines (loop→warp, warp→warp,
// warp→loop) on successful launches. The ceilings are the counts of the
// scheduler whose warps run ahead through ALU-class instructions; one step
// per instruction cost 2011–2048 on the mixed kernel and 12844–12851 on the
// power-law grid. A scheduler change may lower them but never raise them.
func TestHandoffsDoNotRise(t *testing.T) {
	for _, tc := range []struct {
		parallelSMs int
		max         int64
	}{{1, 1153}, {2, 1160}, {8, 1160}} {
		d, _, _, _, _, _ := runMixedDevice(t, tc.parallelSMs)
		if d.handoffs > tc.max {
			t.Errorf("mixedKernel ParallelSMs=%d: %d handoffs, ceiling %d", tc.parallelSMs, d.handoffs, tc.max)
		}
	}
	for _, tc := range []struct {
		parallelSMs int
		max         int64
	}{{1, 935}, {2, 801}, {8, 801}} {
		d, _, _, _ := runPowerLawDevice(t, tc.parallelSMs)
		if d.handoffs > tc.max {
			t.Errorf("powerLawGridKernel ParallelSMs=%d: %d handoffs, ceiling %d", tc.parallelSMs, d.handoffs, tc.max)
		}
	}
}
