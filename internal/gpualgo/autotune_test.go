package gpualgo

import (
	"errors"
	"reflect"
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

func tuneConfig() simt.Config {
	cfg := simt.DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxWarpsPerSM = 16
	cfg.MaxCycles = 50_000_000
	return cfg
}

func TestAutoTunePicksMin(t *testing.T) {
	res, err := SweepK([]int{1, 2, 4}, func(k int, _ int64) (int64, error) {
		return int64(100 / k), nil // monotone: 4 wins
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestK != 4 {
		t.Fatalf("BestK = %d, want 4", res.BestK)
	}
	if res.Speedup != 4 {
		t.Fatalf("Speedup = %f, want 4", res.Speedup)
	}
	if len(res.Cycles) != 3 {
		t.Fatalf("Cycles map %v", res.Cycles)
	}
}

func TestAutoTuneErrors(t *testing.T) {
	if _, err := SweepK(nil, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
	boom := errors.New("boom")
	if _, err := SweepK([]int{1}, func(int, int64) (int64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("measurement error lost: %v", err)
	}
	// Duplicates measured once.
	calls := 0
	if _, err := SweepK([]int{2, 2, 2}, func(int, int64) (int64, error) {
		calls++
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("duplicate candidates measured %d times", calls)
	}
}

// TestSweepKBoundsLaterCandidates checks the order and the bound: the
// widest K is measured first with no bound, every later one with the fewest
// cycles so far, a measurement that stops past its bound cannot win, and a
// tie goes to the smaller K.
func TestSweepKBoundsLaterCandidates(t *testing.T) {
	full := map[int]int64{1: 900, 2: 300, 4: 100, 8: 100, 16: 200}
	var order []int
	var bounds []int64
	res, err := SweepK([]int{1, 2, 4, 8, 16}, func(k int, bound int64) (int64, error) {
		order, bounds = append(order, k), append(bounds, bound)
		if bound > 0 && full[k] > bound {
			return bound + 1, nil // stopped past its bound
		}
		return full[k], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{16, 8, 4, 2, 1}) || !reflect.DeepEqual(bounds, []int64{0, 200, 100, 100, 100}) {
		t.Fatalf("measured K %v with bounds %v", order, bounds)
	}
	if res.BestK != 4 || res.Cycles[4] != 100 || res.Cycles[1] != 101 {
		t.Fatalf("BestK %d, cycles %v", res.BestK, res.Cycles)
	}
}

func TestCandidateKs(t *testing.T) {
	d, err := simt.NewDevice(tuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	ks := CandidateKs(d)
	want := []int{1, 2, 4, 8, 16, 32}
	if len(ks) != len(want) {
		t.Fatalf("ks = %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("ks = %v", ks)
		}
	}
}

func TestAutoTuneBFSFindsLargeKOnSkewedGraph(t *testing.T) {
	g, err := gengraph.RMAT(9, 12, gengraph.DefaultRMAT, 11)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(g)
	res, err := AutoTune(tuneConfig(), Lookup("bfs"), Input{G: g, Src: src}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestK < 8 {
		t.Fatalf("skewed graph tuned to K=%d; expected a wide virtual warp (cycles: %v)",
			res.BestK, res.Cycles)
	}
	if res.Speedup < 2 {
		t.Fatalf("tuning speedup %.2f too small on skewed graph", res.Speedup)
	}
}

func TestAutoTuneNeighborSumFindsSmallKOnMesh(t *testing.T) {
	g, err := gengraph.Torus2D(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AutoTune(tuneConfig(), Lookup("nbrsum"), Input{G: g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestK > 8 {
		t.Fatalf("4-regular torus tuned to K=%d; expected a narrow virtual warp (cycles: %v)",
			res.BestK, res.Cycles)
	}
}
