package simt

import "testing"

// TestHandoffsDoNotRise pins the simulator's host cost per step: the number
// of execution-token transfers between goroutines (loop→warp, warp→warp,
// warp→loop) on successful launches. The ceilings are the counts of the
// scheduler that kept separate sequential and parallel step loops; a
// scheduler change may lower them but never raise them.
func TestHandoffsDoNotRise(t *testing.T) {
	for _, tc := range []struct {
		parallelSMs int
		max         int64
	}{{1, 2048}, {2, 2011}, {8, 2011}} {
		d, _, _, _, _, _ := runMixedDevice(t, tc.parallelSMs)
		if d.handoffs > tc.max {
			t.Errorf("mixedKernel ParallelSMs=%d: %d handoffs, ceiling %d", tc.parallelSMs, d.handoffs, tc.max)
		}
	}
	for _, tc := range []struct {
		schedule    string
		parallelSMs int
		max         int64
	}{
		{"fifo", 1, 12845}, {"fifo", 2, 12851}, {"fifo", 8, 12851},
		{"steal", 1, 12844}, {"steal", 2, 12846}, {"steal", 8, 12846},
	} {
		d, _, _, _ := runPowerLawDevice(t, tc.schedule, tc.parallelSMs)
		if d.handoffs > tc.max {
			t.Errorf("powerLawGridKernel %s ParallelSMs=%d: %d handoffs, ceiling %d",
				tc.schedule, tc.parallelSMs, d.handoffs, tc.max)
		}
	}
}
