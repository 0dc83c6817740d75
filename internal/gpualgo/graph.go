// Package gpualgo implements the paper's graph algorithms as kernels for
// the simt device, each in two mappings: the classic thread-per-vertex
// baseline (virtual warp width K=1) and the paper's virtual warp-centric
// mapping (K>1), with optional dynamic workload distribution and outlier
// deferral. CPU implementations in cpualgo serve as correctness oracles.
package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/obs"
	"maxwarp/internal/simt"
)

// DeviceGraph is a CSR graph resident in simulated device memory.
type DeviceGraph struct {
	// RowPtr and Col mirror graph.CSR's arrays.
	RowPtr *simt.BufI32
	Col    *simt.BufI32
	// Weights is optional (nil unless uploaded), aligned with Col.
	Weights *simt.BufI32

	NumVertices int
	NumEdges    int
}

// Upload copies g into device memory, frozen: no kernel writes a graph, so
// its loads run ahead (see simt.BufI32.Freeze). It trusts the caller to hand
// it a well-formed CSR (internal call sites construct graphs through
// validated constructors); boundary code should prefer UploadChecked.
func Upload(d *simt.Device, g *graph.CSR) *DeviceGraph {
	return &DeviceGraph{
		RowPtr:      d.UploadI32("graph.rowptr", g.RowPtr).Freeze(),
		Col:         d.UploadI32("graph.col", g.Col).Freeze(),
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
	}
}

// UploadChecked validates g's CSR invariants before uploading, so malformed
// graphs are rejected at the host API boundary instead of surfacing later as
// out-of-bounds kernel faults mid-launch.
func UploadChecked(d *simt.Device, g *graph.CSR) (*DeviceGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return Upload(d, g), nil
}

// UploadWeighted copies g and its edge weights into device memory, frozen
// like Upload's.
func UploadWeighted(d *simt.Device, g *graph.CSR, weights []int32) (*DeviceGraph, error) {
	if len(weights) != g.NumEdges() {
		return nil, fmt.Errorf("gpualgo: %d weights for %d edges", len(weights), g.NumEdges())
	}
	dg := Upload(d, g)
	dg.Weights = d.UploadI32("graph.weights", weights).Freeze()
	return dg, nil
}

// Options configure how a kernel maps work onto the machine — the knobs the
// paper's evaluation sweeps.
type Options struct {
	// K is the virtual warp width: 1 reproduces the thread-per-vertex
	// baseline, larger powers of two up to the warp width give the paper's
	// warp-centric mapping. Zero defaults to 1 (baseline).
	K int
	// Dynamic enables dynamic workload distribution: warps claim task chunks
	// from a global counter instead of a static stride schedule.
	Dynamic bool
	// Blocked selects the paper-era blocked static schedule (contiguous task
	// ranges per virtual warp) instead of the default stride schedule.
	// Mutually exclusive with Dynamic.
	Blocked bool
	// Chunk is the dynamic fetch size in tasks (default: 4 * warp width / K).
	Chunk int32
	// DeferThreshold, when > 0, defers vertices with degree above it to a
	// global outlier queue processed by full warps in a follow-up pass of
	// the same kernel. Every table entry honours it except kcore and
	// triangles, which run without deferral.
	DeferThreshold int32
	// BlockSize is threads per block (default 128), a multiple of the
	// device's warp width.
	BlockSize int
	// GridBlocksCap bounds the launched grid; work beyond it is covered by
	// the run's schedule (default: enough blocks to fill the machine 4x).
	GridBlocksCap int
	// Metrics, when non-nil, receives algorithm-level event counters
	// (frontier sizes, edges traversed — see the Metric* names). Counting is
	// host-side accounting sharded by SM: it charges no simulated cycles, so
	// LaunchStats are unchanged, and the totals are bit-identical across
	// ParallelSMs settings.
	Metrics *obs.Metrics
}

// Counter names registered on Options.Metrics by the instrumented kernels.
const (
	// MetricBFSFrontier counts frontier vertices expanded across BFS levels.
	MetricBFSFrontier = "maxwarp_bfs_frontier_vertices_total"
	// MetricBFSEdges counts adjacency entries scanned by BFS expansion
	// (main and deferred passes).
	MetricBFSEdges = "maxwarp_bfs_edges_scanned_total"
	// MetricSSSPEdges counts edges relaxed across Bellman-Ford rounds.
	MetricSSSPEdges = "maxwarp_sssp_edges_relaxed_total"
	// MetricPREdges counts in-edges pulled across PageRank iterations.
	MetricPREdges = "maxwarp_pagerank_edges_pulled_total"
)

func (o Options) withDefaults(d *simt.Device) Options {
	if o.K == 0 {
		o.K = 1
	}
	if o.BlockSize == 0 {
		o.BlockSize = 128
	}
	cfg := d.Config()
	if o.Chunk == 0 {
		c := int32(4 * cfg.WarpWidth / o.K)
		if c < 1 {
			c = 1
		}
		o.Chunk = c
	}
	if o.GridBlocksCap == 0 {
		o.GridBlocksCap = 4 * cfg.NumSMs * cfg.MaxBlocksPerSM
	}
	return o
}

func (o Options) validate(d *simt.Device) error {
	w := d.Config().WarpWidth
	if o.K < 1 || o.K > w || w%o.K != 0 {
		return fmt.Errorf("gpualgo: K=%d must divide the warp width %d", o.K, w)
	}
	if o.Chunk < 1 {
		return fmt.Errorf("gpualgo: chunk %d must be >= 1", o.Chunk)
	}
	if o.BlockSize < 1 || o.BlockSize%w != 0 {
		// ForEach deals tasks to whole warps only: a partial warp's dead
		// lanes would hold tasks that are dealt but never run.
		return fmt.Errorf("gpualgo: block size %d must be a positive multiple of the warp width %d", o.BlockSize, w)
	}
	if o.Dynamic && o.Blocked {
		return fmt.Errorf("gpualgo: Dynamic and Blocked schedules are mutually exclusive")
	}
	return nil
}

// grid returns a launch shape with roughly one K-wide virtual warp per task,
// capped at GridBlocksCap blocks (the schedulers stride over the excess).
func (o Options) grid(d *simt.Device, numTasks int) simt.LaunchConfig {
	threadsWanted := numTasks * o.K
	if threadsWanted < 1 {
		threadsWanted = 1
	}
	lc := simt.Grid1D(threadsWanted, o.BlockSize)
	if lc.Blocks > o.GridBlocksCap {
		lc.Blocks = o.GridBlocksCap
	}
	return lc
}

// Result carries an algorithm's output-independent execution record.
type Result struct {
	// Stats accumulates simulator counters over every launch of the run.
	Stats simt.LaunchStats
	// Launches is the number of kernel launches, each deferred pass
	// counted as one more.
	Launches int
	// Deferred counts the tasks routed through the outlier queue (0 unless
	// Options.DeferThreshold > 0).
	Deferred int
	// Iterations is the number of algorithm-level iterations (BFS levels,
	// Bellman-Ford rounds, PageRank iterations).
	Iterations int
}

// TEPS returns traversed edges per simulated second for an edge total m at
// the device clock.
func (r *Result) TEPS(m int, clockGHz float64) float64 {
	secs := float64(r.Stats.Cycles) / (clockGHz * 1e9)
	if secs <= 0 {
		return 0
	}
	return float64(m) / secs
}
