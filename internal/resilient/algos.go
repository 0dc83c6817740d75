package resilient

import (
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// Execute runs table entry a fault-tolerantly on d: it uploads in.G in the
// entry's form, drives the resumable run with checkpointed retries of
// transient faults, and degrades to the entry's CPU oracle on a permanent
// fault or an exhausted retry budget unless pol.NoFallback is set. The
// Outcome is nil only when the run could not start.
func Execute(d *simt.Device, a *gpualgo.Algorithm, in gpualgo.Input, opts gpualgo.Options, pol Policy) (gpualgo.Output, *Outcome, error) {
	dg, err := a.Upload(d, in)
	if err != nil {
		return gpualgo.Output{}, nil, err
	}
	run, result, err := a.NewRun(d, dg, in, opts, pol.Launch)
	if err != nil {
		return gpualgo.Output{}, nil, err
	}
	out, derr := Drive(pol, run)
	if derr == nil {
		return result(), out, nil
	}
	if pol.NoFallback {
		return gpualgo.Output{}, out, derr
	}
	out.Degraded = true
	out.FallbackCause = derr
	return a.Oracle(in), out, nil
}

// BFSResult is a fault-tolerant BFS answer: device levels when the run
// survived, oracle levels tagged Degraded when it did not.
type BFSResult struct {
	// Levels holds each vertex's hop distance from the source
	// (gpualgo.Unvisited if unreached), whichever engine produced it.
	Levels []int32
	// Depth is the deepest level assigned.
	Depth int32
	// Outcome records retries, faults, and whether the result is degraded.
	Outcome Outcome
	// GPU carries the device run's stats and output (nil when Degraded).
	GPU *gpualgo.BFSResult
}

// BFS uploads g and runs a fault-tolerant device BFS from src: transient
// kernel faults are retried per level from a checkpoint, and permanent
// faults (or an exhausted retry budget) degrade to the CPU oracle unless
// pol.NoFallback is set.
func BFS(d *simt.Device, g *graph.CSR, src graph.VertexID, opts gpualgo.Options, pol Policy) (*BFSResult, error) {
	a := gpualgo.Lookup("bfs")
	o, out, err := Execute(d, a, gpualgo.Input{G: g, Src: src}, opts, pol)
	if err != nil {
		return nil, err
	}
	gpu, _ := o.Result.(*gpualgo.BFSResult)
	return &BFSResult{Levels: o.Value.([]int32), Depth: a.Summarize(o.Value).Depth, Outcome: *out, GPU: gpu}, nil
}

// SSSPResult is a fault-tolerant shortest-paths answer.
type SSSPResult struct {
	// Dist holds each vertex's distance from the source (cpualgo.InfDist
	// if unreachable), whichever engine produced it.
	Dist []int32
	// Outcome records retries, faults, and whether the result is degraded.
	Outcome Outcome
	// GPU carries the device run's stats and output (nil when Degraded).
	GPU *gpualgo.SSSPResult
}

// SSSP uploads g with weights and runs fault-tolerant Bellman-Ford from
// src, retrying transient faults per round and degrading to the CPU
// Dijkstra oracle on permanent failure.
func SSSP(d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID, opts gpualgo.Options, pol Policy) (*SSSPResult, error) {
	o, out, err := Execute(d, gpualgo.Lookup("sssp"), gpualgo.Input{G: g, Weights: weights, Src: src}, opts, pol)
	if err != nil {
		return nil, err
	}
	gpu, _ := o.Result.(*gpualgo.SSSPResult)
	return &SSSPResult{Dist: o.Value.([]int32), Outcome: *out, GPU: gpu}, nil
}

// PageRankResult is a fault-tolerant PageRank answer.
type PageRankResult struct {
	// Ranks is the final rank vector (sums to ~1), whichever engine
	// produced it.
	Ranks []float32
	// Outcome records retries, faults, and whether the result is degraded.
	Outcome Outcome
	// GPU carries the device run's stats and output (nil when Degraded).
	GPU *gpualgo.PageRankResult
}

// PageRank runs fault-tolerant power iteration, retrying transient faults
// per sweep (the rank/next swap only commits after a sweep's two launches
// both succeed) and degrading to the CPU oracle on permanent failure. The
// oracle runs the same damping for the same fixed iteration count.
func PageRank(d *simt.Device, g *graph.CSR, opts gpualgo.PageRankOptions, pol Policy) (*PageRankResult, error) {
	in := gpualgo.Input{G: g, Iterations: opts.Iterations, Damping: float64(opts.Damping)}
	o, out, err := Execute(d, gpualgo.Lookup("pagerank"), in, opts.Options, pol)
	if err != nil {
		return nil, err
	}
	gpu, _ := o.Result.(*gpualgo.PageRankResult)
	return &PageRankResult{Ranks: o.Value.([]float32), Outcome: *out, GPU: gpu}, nil
}
