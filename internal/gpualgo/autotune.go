package gpualgo

import (
	"fmt"
	"sort"

	"maxwarp/internal/simt"
)

// TuneResult records an auto-tuning sweep over virtual warp widths.
type TuneResult struct {
	// BestK is the width with the fewest simulated cycles.
	BestK int
	// Cycles maps each candidate K to its measured cycles.
	Cycles map[int]int64
	// Speedup is baseline (K=1) cycles over BestK cycles (1 if K=1 wins or
	// was not measured).
	Speedup float64
}

// sweepK measures each candidate K with the supplied function (returning
// simulated cycles) and picks the best. Candidates that fail to divide the
// warp width should be excluded by the caller; measurement errors abort.
func sweepK(ks []int, measure func(k int) (int64, error)) (*TuneResult, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("gpualgo: no candidate widths to tune over")
	}
	res := &TuneResult{Cycles: make(map[int]int64, len(ks))}
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	var best int64 = -1
	for _, k := range sorted {
		if _, dup := res.Cycles[k]; dup {
			continue
		}
		c, err := measure(k)
		if err != nil {
			return nil, fmt.Errorf("gpualgo: tuning K=%d: %w", k, err)
		}
		res.Cycles[k] = c
		if best < 0 || c < best {
			best, res.BestK = c, k
		}
	}
	res.Speedup = 1
	if base, ok := res.Cycles[1]; ok && best > 0 {
		res.Speedup = float64(base) / float64(best)
	}
	return res, nil
}

// CandidateKs returns the power-of-two widths valid for the device
// (1, 2, ..., warp width).
func CandidateKs(d *simt.Device) []int {
	var ks []int
	for k := 1; k <= d.Config().WarpWidth; k *= 2 {
		ks = append(ks, k)
	}
	return ks
}

// AutoTune runs entry a on in at each of the device's candidate widths and
// returns the tuning record. Each measurement runs on a fresh device with
// the given base configuration so runs do not share state. The neighbor-sum
// entry is a cheap proxy probe whose best K usually transfers to the full
// algorithms on the same graph.
func AutoTune(cfg simt.Config, a *Algorithm, in Input, opts Options) (*TuneResult, error) {
	probe, err := simt.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	return sweepK(CandidateKs(probe), func(k int) (int64, error) {
		d, err := simt.NewDevice(cfg)
		if err != nil {
			return 0, err
		}
		o := opts
		o.K = k
		out, err := a.Run(d, in, o)
		if err != nil {
			return 0, err
		}
		return out.Stats.Cycles, nil
	})
}
