// Package maxwarp is a from-scratch, pure-Go reproduction of
//
//	Hong, Kim, Oguntebi, Olukotun.
//	"Accelerating CUDA Graph Algorithms at Maximum Warp." PPoPP 2011.
//
// The package is the public facade over the repository's internal layers:
//
//   - a deterministic SIMT GPU simulator (internal/simt) standing in for the
//     paper's CUDA hardware — warps, divergence masks, memory coalescing,
//     atomics, shared memory, latency hiding;
//   - the paper's virtual warp-centric programming method (internal/vwarp):
//     virtual warps of width K, replicated (SISD) + SIMD phases, dynamic
//     workload distribution, and outlier deferral;
//   - graph algorithms in both the thread-per-vertex baseline and
//     warp-centric mappings (internal/gpualgo), with CPU oracles
//     (internal/cpualgo);
//   - seeded workload generators matching the paper's dataset regimes
//     (internal/gengraph);
//   - the experiment harness regenerating every table/figure
//     (internal/bench);
//   - fault injection and a resilient launch/retry layer
//     (internal/simt fault plans, internal/resilient) — typed kernel
//     errors, checkpointed retries, CPU-oracle degradation;
//   - a fault-tolerant analytics service (internal/serve, `maxwarp
//     serve`) multiplexing concurrent queries over a device pool with
//     admission control, deadlines, circuit breakers, and graceful
//     degradation (see docs/SERVICE.md).
//
// Quick start:
//
//	g, _ := maxwarp.RMAT(14, 16, maxwarp.DefaultRMATParams, 42)
//	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
//	dg, _ := maxwarp.UploadGraph(dev, g)
//	res, _ := maxwarp.BFS(dev, dg, 0, maxwarp.Options{K: 32})
//	fmt.Println(res.Depth, res.Stats.Cycles)
//
// See docs/ROBUSTNESS.md for the failure model: every kernel failure
// surfaces as a typed error at the launch boundary, never as a panic.
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-vs-measured record.
package maxwarp

import (
	"context"
	"io"

	"maxwarp/internal/bench"
	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/kernelcheck"
	"maxwarp/internal/obs"
	"maxwarp/internal/report"
	"maxwarp/internal/resilient"
	"maxwarp/internal/sanitize"
	"maxwarp/internal/serve"
	"maxwarp/internal/simt"
	"maxwarp/internal/traceview"
)

// Graph and edge types.
type (
	// Graph is a directed graph in compressed-sparse-row form.
	Graph = graph.CSR
	// Edge is a directed edge for graph construction.
	Edge = graph.Edge
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// DegreeStats summarizes a degree distribution.
	DegreeStats = graph.DegreeStats
)

// Simulator types.
type (
	// Device is the simulated GPU.
	Device = simt.Device
	// DeviceConfig describes the simulated hardware.
	DeviceConfig = simt.Config
	// LaunchConfig is a kernel grid shape.
	LaunchConfig = simt.LaunchConfig
	// LaunchStats aggregates per-launch simulator counters.
	LaunchStats = simt.LaunchStats
	// Kernel is a warp program; see WarpCtx.
	Kernel = simt.Kernel
	// WarpCtx is the per-warp kernel execution context.
	WarpCtx = simt.WarpCtx
	// Tracer receives execution trace events (see Device.SetTracer).
	Tracer = simt.Tracer
	// RingTracer retains the most recent trace events in memory.
	RingTracer = simt.RingTracer
	// TraceEvent is one scheduler observation.
	TraceEvent = simt.TraceEvent
	// LaunchOpts supervise one launch: cycle deadline and progress
	// callback (see Device.LaunchWith).
	LaunchOpts = simt.LaunchOpts
	// KernelFault is the typed error describing a failed kernel launch.
	KernelFault = simt.KernelFault
	// FaultKind classifies a KernelFault.
	FaultKind = simt.FaultKind
	// FaultPlan is a seeded deterministic fault-injection schedule (see
	// Device.SetFaultPlan).
	FaultPlan = simt.FaultPlan
)

// Kernel fault kinds.
const (
	FaultOOB       = simt.FaultOOB
	FaultPanic     = simt.FaultPanic
	FaultBitFlip   = simt.FaultBitFlip
	FaultAbort     = simt.FaultAbort
	FaultCancelled = simt.FaultCancelled
)

// Device-level launch failure sentinels; test with errors.Is (they are
// returned wrapped).
var (
	// ErrDeviceLost: the simulated device failed permanently; launches
	// fail until Device.Revive.
	ErrDeviceLost = simt.ErrDeviceLost
	// ErrLaunchTimeout: the launch exceeded its cycle deadline.
	ErrLaunchTimeout = simt.ErrLaunchTimeout
	// ErrLaunchCancelled: LaunchOpts.OnProgress aborted the launch.
	ErrLaunchCancelled = simt.ErrLaunchCancelled
)

// IsTransientFault reports whether err is a transient launch failure (an
// injected bit-flip or abort) that a retry with restored buffers should
// survive.
func IsTransientFault(err error) bool { return simt.IsTransient(err) }

// Resilient execution types (fault-tolerant wrappers over the device
// algorithms).
type (
	// ResilientPolicy bounds retries/backoff and configures launch
	// supervision for the resilient runners.
	ResilientPolicy = resilient.Policy
	// ResilientOutcome records retries, observed faults, and whether the
	// result was degraded to the CPU oracle.
	ResilientOutcome = resilient.Outcome
	// ResilientBFSResult is the output of ResilientBFS.
	ResilientBFSResult = resilient.BFSResult
	// ResilientSSSPResult is the output of ResilientSSSP.
	ResilientSSSPResult = resilient.SSSPResult
	// ResilientPageRankResult is the output of ResilientPageRank.
	ResilientPageRankResult = resilient.PageRankResult
)

// Algorithm types.
type (
	// DeviceGraph is a graph resident in device memory.
	DeviceGraph = gpualgo.DeviceGraph
	// Options select the work mapping (virtual warp width K, dynamic
	// distribution, outlier deferral).
	Options = gpualgo.Options
	// BFSResult is the output of BFS.
	BFSResult = gpualgo.BFSResult
	// SSSPResult is the output of SSSP.
	SSSPResult = gpualgo.SSSPResult
	// PageRankResult is the output of PageRank.
	PageRankResult = gpualgo.PageRankResult
	// PageRankOptions extend Options with power-iteration parameters.
	PageRankOptions = gpualgo.PageRankOptions
	// CCResult is the output of ConnectedComponents.
	CCResult = gpualgo.CCResult
	// NeighborSumResult is the output of NeighborSum.
	NeighborSumResult = gpualgo.NeighborSumResult
	// SpMVResult is the output of SpMV.
	SpMVResult = gpualgo.SpMVResult
	// TriangleResult is the output of TriangleCount.
	TriangleResult = gpualgo.TriangleResult
	// KCoreResult is the output of KCore.
	KCoreResult = gpualgo.KCoreResult
	// MISResult is the output of MIS.
	MISResult = gpualgo.MISResult
	// ColoringResult is the output of GraphColoring.
	ColoringResult = gpualgo.ColoringResult
	// BCResult is the output of BetweennessCentrality.
	BCResult = gpualgo.BCResult
	// ClosenessResult is the output of ClosenessCentrality.
	ClosenessResult = gpualgo.ClosenessResult
	// SCCResult is the output of SCC.
	SCCResult = gpualgo.SCCResult
	// MSBFSResult is the output of MSBFS.
	MSBFSResult = gpualgo.MSBFSResult
	// BFSDirResult is the output of BFSDirectionOpt.
	BFSDirResult = gpualgo.BFSDirResult
	// DirOptions tune the push/pull hybrid heuristic.
	DirOptions = gpualgo.DirOptions
	// Direction selects a BFS traversal direction.
	Direction = gpualgo.Direction
	// TuneResult records an auto-tuning sweep over virtual warp widths.
	TuneResult = gpualgo.TuneResult
	// DeltaSteppingOptions tune the bucketed SSSP.
	DeltaSteppingOptions = gpualgo.DeltaSteppingOptions
)

// BFS traversal directions for DirOptions.Force.
const (
	DirPush = gpualgo.DirPush
	DirPull = gpualgo.DirPull
)

// Dynamic graphs: batched streaming edge mutations over a frozen CSR, with
// incremental repair algorithms that fix up a previous result instead of
// recomputing from scratch (see DESIGN.md §Dynamic graphs).
type (
	// GraphDelta is a mutation overlay over a frozen base CSR: batched edge
	// inserts/deletes with simple-graph semantics, compaction into a fresh
	// CSR, and rebase for sustained streams.
	GraphDelta = graph.Delta
	// EdgeMutation is one edge insert or delete in a mutation batch.
	EdgeMutation = graph.EdgeMutation
	// AppliedMutation is one effective mutation as reported by
	// GraphDelta.Apply (no-ops filtered out).
	AppliedMutation = graph.AppliedMutation
	// MutationStats classifies a batch: effective inserts/deletes plus
	// counted no-ops (duplicates, absent deletes, self-loops).
	MutationStats = graph.ApplyStats
	// DeviceDeltaGraph is a GraphDelta resident in device memory (base CSR
	// + deletion mask + extension adjacency).
	DeviceDeltaGraph = gpualgo.DeviceDeltaGraph
	// RepairInfo reports incremental-repair work: invalidated vertices,
	// seed frontier size, and device rounds.
	RepairInfo = gpualgo.RepairInfo
)

// NewGraphDelta starts a mutation overlay over base; weights (aligned with
// base.Col) make the delta weighted for incremental SSSP, nil is unweighted.
func NewGraphDelta(base *Graph, weights []int32) (*GraphDelta, error) {
	return graph.NewDelta(base, weights)
}

// UploadDelta copies the forward (out-neighbor) view of dl into device
// memory; re-upload after further Apply calls.
func UploadDelta(d *Device, dl *GraphDelta) (*DeviceDeltaGraph, error) {
	return gpualgo.UploadDelta(d, dl)
}

// UploadDeltaReverse copies the reverse (in-neighbor) view of dl into device
// memory for pull-style kernels (DeltaPageRank).
func UploadDeltaReverse(d *Device, dl *GraphDelta) (*DeviceDeltaGraph, error) {
	return gpualgo.UploadDeltaReverse(d, dl)
}

// IncrementalBFS repairs prevLevels after the applied mutation batch instead
// of recomputing: stale vertices are invalidated host-side, then a device
// frontier re-relaxes outward from the changed region. The result is
// bit-identical to a full recompute on the compacted graph. ddg may be nil
// (uploaded on demand).
func IncrementalBFS(d *Device, dl *GraphDelta, ddg *DeviceDeltaGraph, src VertexID, prevLevels []int32, applied []AppliedMutation, opts Options) (*BFSResult, RepairInfo, error) {
	return gpualgo.IncrementalBFS(d, dl, ddg, src, prevLevels, applied, opts)
}

// IncrementalSSSP repairs prevDist after the applied batch (requires a
// weighted delta); bit-identical to a full recompute on the compacted graph.
func IncrementalSSSP(d *Device, dl *GraphDelta, ddg *DeviceDeltaGraph, src VertexID, prevDist []int32, applied []AppliedMutation, opts Options) (*SSSPResult, RepairInfo, error) {
	return gpualgo.IncrementalSSSP(d, dl, ddg, src, prevDist, applied, opts)
}

// IncrementalCC repairs prevLabels after the applied batch. The delta must
// be symmetric (mutations applied in both directions) for weak components.
func IncrementalCC(d *Device, dl *GraphDelta, ddg *DeviceDeltaGraph, prevLabels []int32, applied []AppliedMutation, opts Options) (*CCResult, RepairInfo, error) {
	return gpualgo.IncrementalCC(d, dl, ddg, prevLabels, applied, opts)
}

// DeltaPageRank re-runs power iteration over the delta overlay, warm-started
// from prev ranks (nil = cold start), stopping at opts.Tolerance; rddg is
// the reverse view from UploadDeltaReverse (nil = uploaded on demand).
func DeltaPageRank(d *Device, dl *GraphDelta, rddg *DeviceDeltaGraph, prev []float32, opts PageRankOptions) (*PageRankResult, RepairInfo, error) {
	return gpualgo.DeltaPageRank(d, dl, rddg, prev, opts)
}

// Generator types.
type (
	// RMATParams are recursive-matrix quadrant probabilities.
	RMATParams = gengraph.RMATParams
	// Preset is a named synthetic stand-in for a paper dataset regime.
	Preset = gengraph.Preset
)

// Experiment harness types.
type (
	// Experiment is one runnable table/figure reproduction.
	Experiment = bench.Experiment
	// ExperimentConfig sizes the experiment suite.
	ExperimentConfig = bench.Config
	// Table is a rendered result table.
	Table = report.Table
)

// DefaultRMATParams is the canonical skewed (0.57,0.19,0.19,0.05)
// parameterization.
var DefaultRMATParams = gengraph.DefaultRMAT

// Unvisited marks unreached vertices in BFS level arrays.
const Unvisited = gpualgo.Unvisited

// InfDist marks unreachable vertices in SSSP distance arrays.
const InfDist = cpualgo.InfDist

// DefaultDeviceConfig returns the GTX 275-class simulated machine.
func DefaultDeviceConfig() DeviceConfig { return simt.DefaultConfig() }

// NewDevice creates a simulated GPU.
func NewDevice(cfg DeviceConfig) (*Device, error) { return simt.NewDevice(cfg) }

// NewGraph builds a CSR graph from an edge list.
func NewGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numVertices, edges)
}

// Stats computes degree statistics for g.
func Stats(g *Graph) DegreeStats { return graph.Stats(g) }

// SortByDegree relabels g in descending-degree order (returns graph and the
// old→new permutation) — preprocessing that evens out per-warp work for
// static thread-per-vertex mappings.
func SortByDegree(g *Graph) (*Graph, []VertexID, error) { return graph.SortByDegree(g) }

// UploadGraph validates g's CSR invariants and copies it into device
// memory; malformed graphs are rejected here instead of faulting kernels
// mid-launch.
func UploadGraph(d *Device, g *Graph) (*DeviceGraph, error) { return gpualgo.UploadChecked(d, g) }

// UploadWeightedGraph copies a graph and per-edge weights (aligned with
// g.Col) into device memory.
func UploadWeightedGraph(d *Device, g *Graph, weights []int32) (*DeviceGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return gpualgo.UploadWeighted(d, g, weights)
}

// BFS runs breadth-first search on the device; Options.K selects the
// mapping (1 = thread-per-vertex baseline, >1 = virtual warp-centric).
func BFS(d *Device, dg *DeviceGraph, src VertexID, opts Options) (*BFSResult, error) {
	return gpualgo.BFS(d, dg, src, opts)
}

// SSSP runs Bellman-Ford shortest paths on the device (requires
// UploadWeightedGraph).
func SSSP(d *Device, dg *DeviceGraph, src VertexID, opts Options) (*SSSPResult, error) {
	return gpualgo.SSSP(d, dg, src, opts)
}

// DeltaStepping runs near-far bucketed SSSP on the device (requires
// UploadWeightedGraph); an alternative to SSSP's Bellman-Ford rounds.
func DeltaStepping(d *Device, dg *DeviceGraph, src VertexID, opts DeltaSteppingOptions) (*SSSPResult, error) {
	return gpualgo.DeltaStepping(d, dg, src, opts)
}

// PageRank runs pull-based power iteration on the device.
func PageRank(d *Device, g *Graph, opts PageRankOptions) (*PageRankResult, error) {
	return gpualgo.PageRank(d, g, opts)
}

// ConnectedComponents runs min-label propagation on the device (symmetrize
// directed graphs first for weak components).
func ConnectedComponents(d *Device, dg *DeviceGraph, opts Options) (*CCResult, error) {
	return gpualgo.ConnectedComponents(d, dg, opts)
}

// NeighborSum runs the gather microkernel (per-vertex sum over neighbors).
func NeighborSum(d *Device, dg *DeviceGraph, values []int32, opts Options) (*NeighborSumResult, error) {
	return gpualgo.NeighborSum(d, dg, values, opts)
}

// BFSFrontier runs queue-based (frontier) BFS — the alternative formulation
// to BFS's quadratic level scan.
func BFSFrontier(d *Device, dg *DeviceGraph, src VertexID, opts Options) (*BFSResult, error) {
	return gpualgo.BFSFrontier(d, dg, src, opts)
}

// ClosenessCentrality estimates closeness centrality from a landmark
// sample, batched through bit-parallel multi-source BFS.
func ClosenessCentrality(d *Device, g *Graph, samples int, seed uint64, opts Options) (*ClosenessResult, error) {
	return gpualgo.ClosenessCentrality(d, g, samples, seed, opts)
}

// ClosenessCentralityCPU is the host oracle over the same landmark sample.
func ClosenessCentralityCPU(g *Graph, sources []VertexID) []float64 {
	return gpualgo.ClosenessCentralityCPU(g, sources)
}

// SCC decomposes a directed graph into strongly connected components on the
// device (Forward-Backward-Trim).
func SCC(d *Device, g *Graph, opts Options) (*SCCResult, error) {
	return gpualgo.SCC(d, g, opts)
}

// SCCCPU is the Tarjan host oracle (canonical min-vertex labels).
func SCCCPU(g *Graph) []int32 { return cpualgo.SCC(g) }

// MSBFS runs up to 31 breadth-first searches simultaneously with
// bit-parallel frontiers; batching shares adjacency scans across sources.
func MSBFS(d *Device, dg *DeviceGraph, sources []VertexID, opts Options) (*MSBFSResult, error) {
	return gpualgo.MSBFS(d, dg, sources, opts)
}

// MSBFSCPU is the host oracle for MSBFS (independent BFS per source).
func MSBFSCPU(g *Graph, sources []VertexID) [][]int32 { return gpualgo.MSBFSCPU(g, sources) }

// SpMV computes y = A·x on the device; Options.K interpolates between
// scalar CSR (K=1) and vector CSR (K=warp width).
func SpMV(d *Device, dg *DeviceGraph, vals, x []float32, opts Options) (*SpMVResult, error) {
	return gpualgo.SpMV(d, dg, vals, x, opts)
}

// SpMVCPU is the host oracle for SpMV (compare with a small tolerance:
// float32 summation order differs).
func SpMVCPU(g *Graph, vals, x []float32) []float32 {
	return gpualgo.SpMVCPU(g, vals, x)
}

// BFSDirectionOpt runs direction-optimizing (push/pull hybrid) BFS.
func BFSDirectionOpt(d *Device, g *Graph, src VertexID, opts DirOptions) (*BFSDirResult, error) {
	return gpualgo.BFSDirectionOpt(d, g, src, opts)
}

// TriangleCount counts triangles on the device (needs an undirected simple
// graph with sorted adjacency, e.g. from Graph.Symmetrize).
func TriangleCount(d *Device, g *Graph, opts Options) (*TriangleResult, error) {
	return gpualgo.TriangleCount(d, g, opts)
}

// TriangleCountCPU is the host oracle for TriangleCount.
func TriangleCountCPU(g *Graph) ([]int32, int64) { return gpualgo.TriangleCountCPU(g) }

// KCore computes k-core membership on the device (upload the symmetrized
// graph).
func KCore(d *Device, dg *DeviceGraph, k int32, opts Options) (*KCoreResult, error) {
	return gpualgo.KCore(d, dg, k, opts)
}

// KCoreCPU is the host oracle for KCore.
func KCoreCPU(g *Graph, k int32) ([]bool, int) { return gpualgo.KCoreCPU(g, k) }

// MIS computes a maximal independent set on the device (upload the
// symmetrized graph); the result is deterministic given the priority seed.
func MIS(d *Device, dg *DeviceGraph, seed uint64, opts Options) (*MISResult, error) {
	return gpualgo.MIS(d, dg, seed, opts)
}

// MISCPU is the host oracle for MIS (greedy in priority order).
func MISCPU(g *Graph, seed uint64) ([]bool, int) { return gpualgo.MISCPU(g, seed) }

// GraphColoring computes a proper vertex coloring on the device
// (Jones–Plassmann rounds; upload the symmetrized graph).
func GraphColoring(d *Device, dg *DeviceGraph, seed uint64, opts Options) (*ColoringResult, error) {
	return gpualgo.GraphColoring(d, dg, seed, opts)
}

// ValidColoring verifies a proper coloring (error = first violation).
func ValidColoring(g *Graph, colors []int32) error { return gpualgo.ValidColoring(g, colors) }

// GreedyColoringCPU is the sequential greedy reference coloring.
func GreedyColoringCPU(g *Graph) ([]int32, int32) { return gpualgo.GreedyColoringCPU(g) }

// BetweennessCentrality runs Brandes' algorithm on the device for the given
// sources (all vertices for exact BC).
func BetweennessCentrality(d *Device, g *Graph, sources []VertexID, opts Options) (*BCResult, error) {
	return gpualgo.BetweennessCentrality(d, g, sources, opts)
}

// BetweennessCentralityCPU is the host Brandes oracle.
func BetweennessCentralityCPU(g *Graph, sources []VertexID) []float64 {
	return gpualgo.BetweennessCentralityCPU(g, sources)
}

// CPU oracles / comparison series.

// BFSCPU is the sequential CPU reference.
func BFSCPU(g *Graph, src VertexID) []int32 { return cpualgo.BFSSequential(g, src) }

// BFSCPUParallel is the multicore CPU reference (workers<=0 = GOMAXPROCS).
func BFSCPUParallel(g *Graph, src VertexID, workers int) []int32 {
	return cpualgo.BFSParallel(g, src, workers)
}

// SSSPCPU is the Dijkstra CPU reference.
func SSSPCPU(g *Graph, weights []int32, src VertexID) []int32 {
	return cpualgo.SSSPDijkstra(g, weights, src)
}

// Generators.

// RMAT generates a skewed recursive-matrix graph with 2^scale vertices.
func RMAT(scale, edgeFactor int, p RMATParams, seed uint64) (*Graph, error) {
	return gengraph.RMAT(scale, edgeFactor, p, seed)
}

// UniformRandom generates a G(n,m)-style uniform random directed graph.
func UniformRandom(n, m int, seed uint64) (*Graph, error) {
	return gengraph.UniformRandom(n, m, seed)
}

// Mesh2D generates a bidirectional rows×cols grid (road-network regime).
func Mesh2D(rows, cols int) (*Graph, error) { return gengraph.Mesh2D(rows, cols) }

// EdgeWeights returns deterministic positive weights aligned with g.Col.
func EdgeWeights(g *Graph, maxWeight int32, seed uint64) []int32 {
	return gengraph.EdgeWeights(g, maxWeight, seed)
}

// Presets returns the standard workload suite (most skewed first).
func Presets() []Preset { return gengraph.Presets() }

// ChungLu generates a power-law graph with explicit exponent gamma.
func ChungLu(n int, avgDegree, gamma float64, seed uint64) (*Graph, error) {
	return gengraph.ChungLu(n, avgDegree, gamma, seed)
}

// ExtractLargestWCC trims g to its largest weakly connected component
// (returns the subgraph and the old→new id map, -1 = dropped).
func ExtractLargestWCC(g *Graph) (*Graph, []VertexID, error) { return graph.ExtractLargestWCC(g) }

// AutoTuneBFS sweeps BFS over all virtual warp widths and reports the best.
func AutoTuneBFS(cfg DeviceConfig, g *Graph, src VertexID, opts Options) (*TuneResult, error) {
	return gpualgo.AutoTune(cfg, gpualgo.Lookup("bfs"), gpualgo.Input{G: g, Src: src}, opts)
}

// AutoTuneNeighborSum sweeps the cheap gather probe to pick K for a graph.
func AutoTuneNeighborSum(cfg DeviceConfig, g *Graph, opts Options) (*TuneResult, error) {
	return gpualgo.AutoTune(cfg, gpualgo.Lookup("nbrsum"), gpualgo.Input{G: g}, opts)
}

// ReadDIMACS parses a DIMACS shortest-path (.gr) file into a graph plus
// per-edge weights aligned with Graph.Col.
func ReadDIMACS(r io.Reader) (*Graph, []int32, error) { return graph.ReadDIMACS(r) }

// WriteDIMACS writes a weighted graph in the DIMACS shortest-path format.
func WriteDIMACS(w io.Writer, g *Graph, weights []int32) error {
	return graph.WriteDIMACS(w, g, weights)
}

// Resilient execution: device algorithms wrapped with bounded retry on
// transient faults (checkpoint/restore between iterations) and graceful
// degradation to the CPU oracle, tagged Outcome.Degraded.

// ResilientBFS runs fault-tolerant BFS: transient kernel faults are retried
// per level from a checkpoint; permanent faults (device loss, kernel bugs)
// or an exhausted retry budget degrade to the CPU oracle.
func ResilientBFS(d *Device, g *Graph, src VertexID, opts Options, pol ResilientPolicy) (*ResilientBFSResult, error) {
	return resilient.BFS(d, g, src, opts, pol)
}

// ResilientSSSP runs fault-tolerant Bellman-Ford shortest paths.
func ResilientSSSP(d *Device, g *Graph, weights []int32, src VertexID, opts Options, pol ResilientPolicy) (*ResilientSSSPResult, error) {
	return resilient.SSSP(d, g, weights, src, opts, pol)
}

// ResilientPageRank runs fault-tolerant power iteration.
func ResilientPageRank(d *Device, g *Graph, opts PageRankOptions, pol ResilientPolicy) (*ResilientPageRankResult, error) {
	return resilient.PageRank(d, g, opts, pol)
}

// RunResilient executes attempt under pol's retry loop: transient errors
// are retried with exponential backoff, then fallback (if non-nil) supplies
// the degraded answer. attempt receives the 1-based attempt number.
func RunResilient[T any](pol ResilientPolicy, attempt func(try int) (T, error), fallback func() (T, error)) (T, *ResilientOutcome, error) {
	return resilient.Run(pol, attempt, fallback)
}

// Experiments.

// Experiments returns every table/figure reproduction in index order.
func Experiments() []Experiment { return bench.All() }

// ExperimentByID looks up one experiment ("E1".."E10", "A1", "A2").
func ExperimentByID(id string) (Experiment, error) { return bench.ByID(id) }

// Observability: sharded counters, sampling tracer, and exporters (see
// DESIGN.md §Observability).
type (
	// Metrics is a registry of per-SM sharded event counters; attach one
	// via Options.Metrics to count traversal events without forcing the
	// sequential fallback.
	Metrics = obs.Metrics
	// MetricCounter is one lock-free sharded counter in a Metrics registry.
	MetricCounter = obs.Counter
	// SamplingTracer is the parallel-safe bounded tracer (implements
	// ParallelTracer, so ParallelSMs launches keep the fast path).
	SamplingTracer = obs.SamplingTracer
	// ParallelTracer marks a Tracer safe for concurrent per-SM delivery.
	ParallelTracer = simt.ParallelTracer
	// LaunchProfile holds the optional per-launch histograms (see
	// Device.SetProfiling and LaunchStats.Profile).
	LaunchProfile = simt.LaunchProfile
	// MetricFamily is one named metric in the Prometheus text exposition.
	MetricFamily = report.MetricFamily
)

// Kernel sanitizer: the simulator's cuda-memcheck/racecheck/synccheck
// analogue. Attach with Device.SetSanitizer and enable per device
// (DeviceConfig.Sanitize) or per launch (LaunchOpts.Sanitize); sanitized
// launches run on the sequential event loop and report identical
// LaunchStats.Cycles. See docs/PROGRAMMING.md §Kernel discipline.
type (
	// KernelSanitizer is the standard hazard-detecting sanitizer: global and
	// shared-memory race detection, out-of-bounds and uninitialized-read
	// checking, and barrier-divergence checking, with deduplicated reports.
	KernelSanitizer = sanitize.Sanitizer
	// SanitizerHook is the low-level observation interface a custom
	// sanitizer implements (Device.SetSanitizer accepts any SanitizerHook).
	SanitizerHook = simt.Sanitizer
	// SanitizerDiagnostic is one deduplicated finding.
	SanitizerDiagnostic = sanitize.Diagnostic
	// SanitizerSeverity ranks findings (SeverityInfo < SeverityError).
	SanitizerSeverity = sanitize.Severity
)

// Sanitizer finding severities.
const (
	// SeverityInfo marks benign or by-design findings (same-value racy
	// writes, cross-launch stale reads under the frozen-snapshot model).
	SeverityInfo = sanitize.SeverityInfo
	// SeverityError marks genuine hazards (conflicting racy writes,
	// out-of-bounds, uninitialized reads, divergent barriers).
	SeverityError = sanitize.SeverityError
)

// NewKernelSanitizer returns an empty sanitizer ready for
// Device.SetSanitizer; its state persists across launches until Reset.
func NewKernelSanitizer() *KernelSanitizer { return sanitize.NewSanitizer() }

// NewMetrics returns a counter registry sharded for numSMs SMs.
func NewMetrics(numSMs int) *Metrics { return obs.NewMetrics(numSMs) }

// NewSamplingTracer returns a parallel-safe tracer keeping 1-in-every
// sampled instruction events per SM in rings of capPerSM events.
func NewSamplingTracer(numSMs int, every int64, capPerSM int) *SamplingTracer {
	return obs.NewSamplingTracer(numSMs, every, capPerSM)
}

// ExportPromText renders launch stats (plus optional registry counters) as
// Prometheus text exposition.
func ExportPromText(prefix string, stats *LaunchStats, m *Metrics, perSM bool) (string, error) {
	return obs.ExportPromText(prefix, stats, m, perSM)
}

// ChromeTrace renders trace events as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto).
func ChromeTrace(events []TraceEvent) ([]byte, error) { return traceview.ChromeTrace(events) }

// Service layer: the fault-tolerant analytics daemon behind `maxwarp
// serve` (see docs/SERVICE.md).
type (
	// AnalyticsServer multiplexes concurrent graph queries over a pool of
	// simulated devices with admission control, tenant quotas, deadlines,
	// per-device circuit breakers, a result cache, and CPU-oracle
	// degradation. Construct with NewAnalyticsServer, call Start, mount
	// Handler on an http.Server, and Shutdown to drain.
	AnalyticsServer = serve.Server
	// AnalyticsConfig configures an AnalyticsServer; the zero value of
	// every field gets a sensible default except Graphs, which is
	// required.
	AnalyticsConfig = serve.Config
	// ServeGraphSpec names one pre-loaded graph: a generator preset and
	// scale, or a DIMACS file.
	ServeGraphSpec = serve.GraphSpec
	// QueryRequest is the POST /v1/query body.
	QueryRequest = serve.QueryRequest
	// QueryResponse is the query reply: engine, degradation/cache flags,
	// retry and fault log, timings, and the result payload.
	QueryResponse = serve.QueryResponse
	// TenantQuota is a per-tenant token-bucket rate limit.
	TenantQuota = serve.TenantQuota
	// LoadOptions drive a synthetic query mix against a running server.
	LoadOptions = serve.LoadOptions
	// LoadReport summarizes a load test: codes, shed reasons, degraded and
	// cached counts, latency percentiles.
	LoadReport = serve.LoadReport
)

// NewAnalyticsServer builds a server and eagerly loads its graphs.
func NewAnalyticsServer(cfg AnalyticsConfig) (*AnalyticsServer, error) { return serve.New(cfg) }

// ParseServeGraphSpec parses "name=Preset:scale[:seed]" or "name=@file.gr".
func ParseServeGraphSpec(s string) (ServeGraphSpec, error) { return serve.ParseGraphSpec(s) }

// LoadTest drives a synthetic weighted query mix against a running
// analytics server and reports shed/degradation counts and latency
// percentiles; parse the mix with serve syntax "algo@graph[=weight],...".
func LoadTest(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	return serve.Load(ctx, opts)
}

// ParseQueryMix parses a weighted mix spec "algo@graph[=weight],..." for
// LoadOptions.Mix.
func ParseQueryMix(s string) ([]serve.MixItem, error) { return serve.ParseMix(s) }

// Static warp-efficiency analysis (internal/kernelcheck): a per-kernel CFG
// plus lane-taint dataflow predicting the paper's pathologies — divergence,
// uncoalesced access, atomic serialization — statically, cross-validated
// against LaunchStats counters by the warplint test harness. See
// docs/PROGRAMMING.md "Static warp-efficiency analysis".
type (
	// KernelVerdict is one kernel's static warp-efficiency summary
	// (divergence/loops/coalesce/atomics/barriers classes plus finding
	// count).
	KernelVerdict = kernelcheck.KernelVerdict
	// LintDiagnostic is one static-analysis finding (file:line, rule,
	// message).
	LintDiagnostic = kernelcheck.Diagnostic
)

// KernelVerdicts statically analyzes every kernel in a source directory
// and returns per-kernel warp-efficiency verdicts (the `maxwarp lint`
// table).
func KernelVerdicts(dir string, includeTests bool) ([]KernelVerdict, error) {
	return kernelcheck.DirVerdicts(dir, includeTests)
}

// LintSource runs the kernel-discipline analyzers over one Go source file's
// contents and returns the unsuppressed findings.
func LintSource(filename string, src []byte) ([]LintDiagnostic, error) {
	return kernelcheck.CheckSource(filename, src)
}
