package gpualgo

import (
	"errors"
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
	res, err := sweepK([]int{1, 2, 4}, func(k int) (int64, error) {
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
	if _, err := sweepK(nil, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
	boom := errors.New("boom")
	if _, err := sweepK([]int{1}, func(int) (int64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("measurement error lost: %v", err)
	}
	// Duplicates measured once.
	calls := 0
	if _, err := sweepK([]int{2, 2, 2}, func(int) (int64, error) {
		calls++
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("duplicate candidates measured %d times", calls)
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
