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
	n := g.NumVertices()
	if samples <= 0 {
		return nil, fmt.Errorf("gpualgo: need a positive sample count, got %d", samples)
	}
	// Distances v -> landmark = BFS distance landmark -> v on the reverse.
	rev := g.Reverse()
	dgRev := Upload(d, rev)
	sources := closenessSources(n, samples, seed)
	res := &ClosenessResult{Sources: sources}
	res.Stats.WarpWidth = d.Config().WarpWidth
	sumDist := make([]int64, n)
	reached := make([]int64, n)
	for off := 0; off < len(sources); off += MaxMSBFSSources {
		end := off + MaxMSBFSSources
		if end > len(sources) {
			end = len(sources)
		}
		batch, err := MSBFS(d, dgRev, sources[off:end], opts)
		if err != nil {
			return nil, fmt.Errorf("gpualgo: closeness batch at %d: %w", off, err)
		}
		res.Stats.Add(&batch.Stats)
		res.Launches += batch.Launches
		res.Iterations++
		for _, levels := range batch.Levels {
			for v, l := range levels {
				if l > 0 {
					sumDist[v] += int64(l)
					reached[v]++
				}
			}
		}
	}
	res.Scores = make([]float64, n)
	for v := 0; v < n; v++ {
		if sumDist[v] > 0 {
			// Wasserman-Faust style normalization against the sample.
			res.Scores[v] = float64(reached[v]) / float64(sumDist[v])
		}
	}
	return res, nil
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
