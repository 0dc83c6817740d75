// Package maxwarp is a from-scratch, pure-Go reproduction of
//
//	Hong, Kim, Oguntebi, Olukotun.
//	"Accelerating CUDA Graph Algorithms at Maximum Warp." PPoPP 2011.
//
// Every graph kernel of the repository runs on a deterministic simulated
// GPU, in the thread-per-vertex baseline (Options.K = 1) or the paper's
// virtual warp-centric mapping (K > 1). The public surface is small:
//
//   - graphs and the seeded generators of the paper's dataset regimes
//     (RMAT, Mesh2D, Presets);
//   - the simulated device (NewDevice), which also runs custom kernels
//     written against WarpCtx;
//   - the headline BFS, typed (UploadGraph, BFS), and typed shorthands
//     for two table entries (SSSP, TriangleCount);
//   - the algorithm table, which lists every kernel once: Algorithms and
//     Lookup return entries whose Run executes the kernel on a device,
//     whose Oracle computes the same answer on the CPU and whose Compare
//     checks one against the other. Execute runs an entry fault-tolerantly
//     (checkpointed retries, CPU-oracle degradation) and AutoTune picks its
//     best virtual warp width.
//
// Quick start:
//
//	g, _ := maxwarp.RMAT(14, 16, maxwarp.DefaultRMATParams, 42)
//	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
//	dg, _ := maxwarp.UploadGraph(dev, g)
//	res, _ := maxwarp.BFS(dev, dg, 0, maxwarp.Options{K: 32})
//	fmt.Println(res.Depth, res.Stats.Cycles)
//
// Any other kernel, by name:
//
//	a := maxwarp.Lookup("sssp")
//	in := maxwarp.Input{G: g, Weights: maxwarp.EdgeWeights(g, 10, 1)}
//	out, _ := a.Run(dev, in, maxwarp.Options{K: 16})
//
// See docs/ROBUSTNESS.md for the failure model: every kernel failure
// surfaces as a typed error at the launch boundary, never as a panic.
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-vs-measured record.
package maxwarp

import (
	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/resilient"
	"maxwarp/internal/simt"
)

// Graphs and generators.
type (
	// Graph is a directed graph in compressed-sparse-row form.
	Graph = graph.CSR
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// DegreeStats summarizes a degree distribution.
	DegreeStats = graph.DegreeStats
	// RMATParams are recursive-matrix quadrant probabilities.
	RMATParams = gengraph.RMATParams
	// Preset is a named synthetic stand-in for a paper dataset regime.
	Preset = gengraph.Preset
)

// DefaultRMATParams is the canonical skewed (0.57,0.19,0.19,0.05)
// parameterization.
var DefaultRMATParams = gengraph.DefaultRMAT

// RMAT generates a skewed recursive-matrix graph with 2^scale vertices.
func RMAT(scale, edgeFactor int, p RMATParams, seed uint64) (*Graph, error) {
	return gengraph.RMAT(scale, edgeFactor, p, seed)
}

// Mesh2D generates a bidirectional rows×cols grid (road-network regime).
func Mesh2D(rows, cols int) (*Graph, error) { return gengraph.Mesh2D(rows, cols) }

// EdgeWeights returns deterministic positive weights aligned with g.Col.
func EdgeWeights(g *Graph, maxWeight int32, seed uint64) []int32 {
	return gengraph.EdgeWeights(g, maxWeight, seed)
}

// Presets returns the standard workload suite (most skewed first).
func Presets() []Preset { return gengraph.Presets() }

// Stats computes degree statistics for g.
func Stats(g *Graph) DegreeStats { return graph.Stats(g) }

// The simulated device.
type (
	// Device is the simulated GPU.
	Device = simt.Device
	// DeviceConfig describes the simulated hardware.
	DeviceConfig = simt.Config
	// LaunchConfig is a kernel grid shape.
	LaunchConfig = simt.LaunchConfig
	// WarpCtx is the per-warp kernel execution context.
	WarpCtx = simt.WarpCtx
	// FaultPlan is a seeded deterministic fault-injection schedule (see
	// Device.SetFaultPlan).
	FaultPlan = simt.FaultPlan
)

// DefaultDeviceConfig returns the GTX 275-class simulated machine.
func DefaultDeviceConfig() DeviceConfig { return simt.DefaultConfig() }

// NewDevice creates a simulated GPU.
func NewDevice(cfg DeviceConfig) (*Device, error) { return simt.NewDevice(cfg) }

// The typed headline BFS.
type (
	// DeviceGraph is a graph resident in device memory.
	DeviceGraph = gpualgo.DeviceGraph
	// Options select the work mapping (virtual warp width K, dynamic
	// distribution, outlier deferral).
	Options = gpualgo.Options
	// BFSResult is the output of BFS.
	BFSResult = gpualgo.BFSResult
)

// Unvisited marks unreached vertices in BFS level arrays.
const Unvisited = gpualgo.Unvisited

// UploadGraph validates g's CSR invariants and copies it into device
// memory; malformed graphs are rejected here instead of faulting kernels
// mid-launch.
func UploadGraph(d *Device, g *Graph) (*DeviceGraph, error) { return gpualgo.UploadChecked(d, g) }

// BFS runs breadth-first search on the device; Options.K selects the
// mapping (1 = thread-per-vertex baseline, >1 = virtual warp-centric).
func BFS(d *Device, dg *DeviceGraph, src VertexID, opts Options) (*BFSResult, error) {
	return gpualgo.BFS(d, dg, src, opts)
}

// SSSP runs weighted single-source shortest paths from src on the device:
// the table's "sssp" entry with typed input and output. weights holds one
// positive weight per edge of g; unreachable vertices read InfDist.
func SSSP(d *Device, g *Graph, weights []int32, src VertexID, opts Options) ([]int32, error) {
	out, err := Lookup("sssp").Run(d, Input{G: g, Weights: weights, Src: src}, opts)
	if err != nil {
		return nil, err
	}
	return out.Value.([]int32), nil
}

// TriangleCount counts the triangles of the undirected graph g (see
// Graph.Symmetrize) on the device: the table's "triangles" entry with typed
// output.
func TriangleCount(d *Device, g *Graph, opts Options) (int64, error) {
	out, err := Lookup("triangles").Run(d, Input{G: g}, opts)
	if err != nil {
		return 0, err
	}
	return out.Value.(int64), nil
}

// The algorithm table.
type (
	// Algorithm is one kernel of the table: its name, the graph form it
	// runs on, its device run, its CPU oracle and its comparator.
	Algorithm = gpualgo.Algorithm
	// Input is what a caller hands an Algorithm; each entry reads only the
	// fields it needs.
	Input = gpualgo.Input
	// Output is one answer of an entry, from the device or its oracle.
	Output = gpualgo.Output
	// TuneResult records an auto-tuning sweep over virtual warp widths.
	TuneResult = gpualgo.TuneResult
	// ResilientPolicy bounds the retries and backoff of Execute.
	ResilientPolicy = resilient.Policy
	// ResilientOutcome records retries, observed faults, and whether the
	// result was degraded to the CPU oracle.
	ResilientOutcome = resilient.Outcome
)

// InfDist marks unreachable vertices in SSSP distance arrays.
const InfDist = cpualgo.InfDist

// Algorithms returns every entry of the table in display order.
func Algorithms() []Algorithm { return gpualgo.Algorithms() }

// Lookup returns the entry called name ("bfs", "sssp", "pagerank", ...),
// or nil.
func Lookup(name string) *Algorithm { return gpualgo.Lookup(name) }

// Execute runs entry a fault-tolerantly on d: transient kernel faults are
// retried from a checkpoint of the last completed round, and a permanent
// fault or an exhausted retry budget degrades to the entry's CPU oracle
// (tagged ResilientOutcome.Degraded) unless pol.NoFallback is set.
func Execute(d *Device, a *Algorithm, in Input, opts Options, pol ResilientPolicy) (Output, *ResilientOutcome, error) {
	return resilient.Execute(d, a, in, opts, pol)
}

// AutoTune runs entry a on in at every virtual warp width the device
// supports, each on a fresh device with configuration cfg, and reports the
// width with the fewest simulated cycles.
func AutoTune(cfg DeviceConfig, a *Algorithm, in Input, opts Options) (*TuneResult, error) {
	return gpualgo.AutoTune(cfg, a, in, opts)
}
