package simt

import (
	"math/rand"
	"testing"
)

// TestWinnerTreeMatchesScan drives winnerTree at every size from 1 to 64 —
// powers of two and not, such as MaxWarpsPerSM 24 and 48 — with seeded
// random key rises and falls (from a small range, so ties are common),
// emptied slots, and the stable compaction plus rebuild that retireBlock
// does. After every operation top must match a linear scan: the smallest
// key, the lowest slot on ties, or neverReady when every slot is empty.
func TestWinnerTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 1; n <= 64; n++ {
		tr := newWinnerTree(n)
		ref := make([]int64, n)
		for i := range ref {
			ref[i] = neverReady
		}
		for step := 0; step < 500; step++ {
			op := "set"
			switch r := rng.Intn(10); {
			case r < 7:
				i := rng.Intn(n)
				ref[i] = rng.Int63n(24)
				tr.set(i, ref[i])
			case r < 9:
				op = "empty"
				i := rng.Intn(n)
				ref[i] = neverReady
				tr.set(i, neverReady)
			default:
				op = "compact"
				live := 0
				for _, k := range ref {
					if rng.Intn(2) == 0 {
						ref[live] = k
						tr.keys[live] = k
						live++
					}
				}
				for i := live; i < n; i++ {
					ref[i] = neverReady
					tr.keys[i] = neverReady
				}
				tr.rebuild()
			}
			want, wantKey := -1, int64(neverReady)
			for i, k := range ref {
				if k < wantKey {
					want, wantKey = i, k
				}
			}
			got, gotKey := tr.top()
			if gotKey != wantKey || (want >= 0 && got != want) {
				t.Fatalf("n=%d step %d (%s): top = slot %d key %d, scan = slot %d key %d",
					n, step, op, got, gotKey, want, wantKey)
			}
		}
	}
}
