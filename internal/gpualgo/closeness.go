package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/xrand"
)

// ClosenessResult is the output of sampled closeness centrality.
type ClosenessResult struct {
	Result
	// Scores[v] is the estimated closeness of v: (reached-1) / sum of
	// distances from v to the sampled sources' trees — computed from the
	// reverse direction, i.e. distances from sources to v on the reverse
	// graph equal distances v→source on the original. 0 for vertices that
	// reach no sample.
	Scores []float64
	// Sources is the sample actually used.
	Sources []graph.VertexID
}

// ClosenessCentrality estimates closeness centrality by sampling: distances
// from every vertex to `samples` random landmark vertices are obtained with
// ONE bit-parallel multi-source BFS batch per 31 landmarks on the reverse
// graph — the standard estimator that MS-BFS batching makes cheap. With
// samples >= |V| (clamped) the estimate is exact.
func ClosenessCentrality(d *simt.Device, g *graph.CSR, samples int, seed uint64, opts Options) (*ClosenessResult, error) {
	return complete(newClosenessRun(d, g, samples, seed, opts))
}

// newClosenessRun builds a closeness run whose rounds are landmark batches:
// each runs one MS-BFS to completion under the run's Launch.
func newClosenessRun(d *simt.Device, g *graph.CSR, samples int, seed uint64, opts Options) (*Run[*ClosenessResult], error) {
	res := &ClosenessResult{}
	// The batches' MS-BFS runs defer; this run launches nothing itself.
	r, err := newRun[*ClosenessResult](d, &res.Result, &opts, 0)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if samples <= 0 {
		return nil, fmt.Errorf("gpualgo: need a positive sample count, got %d", samples)
	}
	// Distances v -> landmark = BFS distance landmark -> v on the reverse.
	dgRev := r.graph(Upload(d, g.Reverse()))
	res.Sources = closenessSources(n, samples, seed)
	sumDist := make([]int64, n)
	reached := make([]int64, n)
	r.done = len(res.Sources) == 0
	r.round = func() (bool, error) {
		off := res.Iterations * MaxMSBFSSources
		end := min(off+MaxMSBFSSources, len(res.Sources))
		b, err := newMSBFSRun(d, dgRev, res.Sources[off:end], opts)
		if err == nil {
			b.Launch = r.Launch
			err = finish(b)
		}
		if err != nil {
			return false, fmt.Errorf("gpualgo: closeness batch at %d: %w", off, err)
		}
		batch := b.Result()
		r.absorb(&batch.Result)
		for _, levels := range batch.Levels {
			for v, l := range levels {
				if l > 0 {
					sumDist[v] += int64(l)
					reached[v]++
				}
			}
		}
		return end == len(res.Sources), nil
	}
	r.result = func() *ClosenessResult {
		res.Scores = make([]float64, n)
		for v := 0; v < n; v++ {
			if sumDist[v] > 0 {
				// Wasserman-Faust style normalization against the sample.
				res.Scores[v] = float64(reached[v]) / float64(sumDist[v])
			}
		}
		return res
	}
	return r, nil
}

// ClosenessCentralityCPU is the host oracle over the same landmark sample.
func ClosenessCentralityCPU(g *graph.CSR, sources []graph.VertexID) []float64 {
	n := g.NumVertices()
	rev := g.Reverse()
	sumDist := make([]int64, n)
	reached := make([]int64, n)
	for _, src := range sources {
		levels := bfsLevelsCPU(rev, src)
		for v, l := range levels {
			if l > 0 {
				sumDist[v] += int64(l)
				reached[v]++
			}
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		if sumDist[v] > 0 {
			out[v] = float64(reached[v]) / float64(sumDist[v])
		}
	}
	return out
}

// closenessSources draws the landmark sample: the first samples vertices
// (at most n) of a seeded permutation.
func closenessSources(n, samples int, seed uint64) []graph.VertexID {
	if samples > n {
		samples = n
	}
	perm := xrand.New(seed).Perm(n)
	sources := make([]graph.VertexID, samples)
	for i := range sources {
		sources[i] = graph.VertexID(perm[i])
	}
	return sources
}
