package gpualgo

import (
	"fmt"
	"math"
	"reflect"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// Form is the graph form an Algorithm runs on.
type Form int

const (
	// Plain entries run on the caller's graph, uploaded as is.
	Plain Form = iota
	// Weighted entries upload the graph together with Input.Weights.
	Weighted
	// Symmetrized entries need the undirected simple closure of the graph
	// (graph.CSR.Symmetrize, see Algorithm.Graph) as Input.G, uploaded as
	// is.
	Symmetrized
	// HostSide entries take the host graph and build their own device
	// copies, for example PageRank's reverse graph.
	HostSide
)

// Input is what a caller hands an Algorithm. Each entry reads only the
// fields it needs. Every input that changes simulated cycles comes from the
// caller; an entry fixes an input itself (the neighbor-sum values, the SpMV
// matrix and vector) only where no kernel branches on it.
type Input struct {
	// G is the graph in the entry's form.
	G *graph.CSR
	// Weights holds one weight per edge of G (Weighted entries).
	Weights []int32
	// Src is the source of the single-source traversals.
	Src graph.VertexID
	// BCSources are betweenness centrality's sources.
	BCSources []graph.VertexID
	// MSBFSSources is the multi-source BFS batch.
	MSBFSSources []graph.VertexID
	// Iterations and Damping configure PageRank; zero selects its defaults
	// (20 iterations, damping 0.85).
	Iterations int
	Damping    float64
	// CoreK is the k of k-core.
	CoreK int32
	// Seed draws the MIS and coloring priorities and the closeness
	// landmarks.
	Seed uint64
	// Samples is the closeness landmark count.
	Samples int
}

// Output is one answer of an entry, from the device or from its oracle.
type Output struct {
	// Stats records the device run (zero for oracle answers).
	Stats simt.LaunchStats
	// Rounds counts the run's iterations: the device's, or the oracle's
	// where the oracle iterates (PageRank).
	Rounds int
	// Deferred counts the tasks the device run deferred to its outlier
	// queue (see Options.DeferThreshold).
	Deferred int
	// Note is the one-line summary `maxwarp algo` prints after a device
	// run.
	Note string
	// Value is the answer the oracle and the comparator see: levels,
	// distances, ranks, labels, scores or a count (int64).
	Value any
	// Result is the kernel's own result (*BFSResult, ...), nil for oracle
	// answers.
	Result any
}

// Summary digests the answer of a servable entry: the note `maxwarp algo
// -inject` prints, and what the analytics service returns.
type Summary struct {
	Note          string
	Depth         int32
	Reached       int
	MaxFiniteDist int32
	Components    int
	RankSum       float64
	TopVertex     int32
	// Levels, Dist, Labels and Ranks hold the answer vector under its name.
	Levels, Dist, Labels []int32
	Ranks                []float32
}

// Algorithm is one kernel of the table: the single place that knows which
// graph form it needs, how to build its resumable run, which CPU oracle
// checks it and how its answer is compared.
type Algorithm struct {
	Name string
	Form Form
	// Oracle computes the answer on the CPU.
	Oracle func(in Input) Output
	// Compare returns nil when a device answer matches the oracle's. It is
	// exact for vectors and counts, a per-element tolerance for floats, and
	// a validity check where many answers are right (coloring).
	Compare func(in Input, got, want any) error
	// Summarize digests an answer; set for the entries the analytics
	// service serves (bfs, sssp, pagerank, cc).
	Summarize func(v any) Summary

	// start builds the entry's run on dg, the graph Upload returned, and
	// the function that packs its answer once the run is done.
	start func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error)
}

// runner is a Stepper whose launches a supervisor can set: every *Run.
type runner interface {
	Stepper
	setLaunch(simt.LaunchOpts)
}

// Algorithms returns the table in display order.
func Algorithms() []Algorithm {
	return append([]Algorithm(nil), algorithms...)
}

// Lookup returns the entry called name, or nil.
func Lookup(name string) *Algorithm {
	for _, a := range algorithms {
		if a.Name == name {
			return &a
		}
	}
	return nil
}

// Names lists the entries' names in table order; with summarized set, only
// those of entries with a Summarize (the servable ones).
func Names(summarized bool) []string {
	var names []string
	for _, a := range algorithms {
		if !summarized || a.Summarize != nil {
			names = append(names, a.Name)
		}
	}
	return names
}

// Graph returns the graph a runs on for the caller's g: its symmetrized
// closure for Symmetrized entries, g itself otherwise.
func (a *Algorithm) Graph(g *graph.CSR) (*graph.CSR, error) {
	if a.Form != Symmetrized {
		return g, nil
	}
	return g.Symmetrize()
}

// Upload validates in.G and puts it on d in the form the entry's run
// takes. HostSide entries upload their own copies, so it returns nil for
// them.
func (a *Algorithm) Upload(d *simt.Device, in Input) (*DeviceGraph, error) {
	if err := in.G.Validate(); err != nil {
		return nil, err
	}
	switch a.Form {
	case HostSide:
		return nil, nil
	case Weighted:
		return UploadWeighted(d, in.G, in.Weights)
	}
	return Upload(d, in.G), nil
}

// Run uploads in.G and runs the kernel to completion.
func (a *Algorithm) Run(d *simt.Device, in Input, opts Options) (Output, error) {
	dg, err := a.Upload(d, in)
	if err != nil {
		return Output{}, err
	}
	s, result, err := a.NewRun(d, dg, in, opts, simt.LaunchOpts{})
	if err != nil {
		return Output{}, err
	}
	if err := finish(s); err != nil {
		return Output{}, err
	}
	return result(), nil
}

// NewRun builds the entry's resumable run on dg, which Upload returned for
// in. launch supervises every kernel launch of the run. The returned
// function reads the answer once the stepper reports done.
func (a *Algorithm) NewRun(d *simt.Device, dg *DeviceGraph, in Input, opts Options, launch simt.LaunchOpts) (Stepper, func() Output, error) {
	s, result, err := a.start(d, dg, in, opts)
	if err != nil {
		return nil, nil, err
	}
	s.setLaunch(launch)
	return s, result, nil
}

// output packs a finished device run.
func (r *Result) output(res, value any, note string) Output {
	return Output{Stats: r.Stats, Rounds: r.Iterations, Deferred: r.Deferred, Note: note, Value: value, Result: res}
}

// oracle wraps a CPU answer.
func oracle(v any) Output { return Output{Value: v} }

func depthNote(depth int32) string { return fmt.Sprintf("depth %d", depth) }

// exact requires equal answers.
func exact(_ Input, got, want any) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("answer differs from the CPU oracle")
	}
	return nil
}

// within accepts float answers with |got-want| <= rel*|want| + abs per
// element.
func within(rel, abs float64) func(Input, any, any) error {
	return func(_ Input, got, want any) error {
		g, w := floats(got), floats(want)
		if len(g) != len(w) {
			return fmt.Errorf("length %d, oracle %d", len(g), len(w))
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > rel*math.Abs(w[i])+abs {
				return fmt.Errorf("[%d] = %g, oracle %g", i, g[i], w[i])
			}
		}
		return nil
	}
}

func floats(v any) []float64 {
	switch v := v.(type) {
	case []float64:
		return v
	case []float32:
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = float64(x)
		}
		return out
	}
	return nil
}

// nbrsumValues are the neighbor-sum inputs: vertex ids.
func nbrsumValues(n int) []int32 {
	values := make([]int32, n)
	for i := range values {
		values[i] = int32(i)
	}
	return values
}

// spmvMatrix is the SpMV input: the matrix values and the vector.
func spmvMatrix(g *graph.CSR) (vals, x []float32) {
	vals = make([]float32, g.NumEdges())
	for i := range vals {
		vals[i] = float32(i%7) * 0.25
	}
	x = make([]float32, g.NumVertices())
	for i := range x {
		x[i] = float32(i%5) * 0.5
	}
	return vals, x
}

func summarizeLevels(v any) Summary {
	levels := v.([]int32)
	s := Summary{Levels: levels}
	for _, l := range levels {
		if l >= 0 {
			s.Reached++
			if l > s.Depth {
				s.Depth = l
			}
		}
	}
	s.Note = depthNote(s.Depth)
	return s
}

func summarizeDist(v any) Summary {
	dist := v.([]int32)
	s := Summary{Dist: dist}
	for _, d := range dist {
		if d < cpualgo.InfDist {
			s.Reached++
			if d > s.MaxFiniteDist {
				s.MaxFiniteDist = d
			}
		}
	}
	s.Note = fmt.Sprintf("%d reachable", s.Reached)
	return s
}

func summarizeRanks(v any) Summary {
	ranks := v.([]float32)
	s := Summary{Ranks: ranks}
	for u, r := range ranks {
		s.RankSum += float64(r)
		if r > ranks[s.TopVertex] {
			s.TopVertex = int32(u)
		}
	}
	s.Note = fmt.Sprintf("rank sum %.4f", s.RankSum)
	return s
}

func summarizeLabels(v any) Summary {
	labels := v.([]int32)
	s := Summary{Labels: labels}
	for u, l := range labels {
		if int32(u) == l {
			s.Components++
		}
	}
	s.Note = fmt.Sprintf("%d components", s.Components)
	return s
}

func bfsOracle(in Input) Output { return oracle(cpualgo.BFSSequential(in.G, in.Src)) }

func ssspOracle(in Input) Output { return oracle(cpualgo.SSSPDijkstra(in.G, in.Weights, in.Src)) }

// algorithms is the table. The order is the CLI's display order.
var algorithms = []Algorithm{
	{
		Name: "bfs", Form: Plain,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := NewBFSRun(d, dg, in.Src, opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Levels, depthNote(res.Depth)) }, err
		},
		Oracle: bfsOracle, Compare: exact, Summarize: summarizeLevels,
	},
	{
		Name: "bfsfrontier", Form: Plain,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newBFSFrontierRun(d, dg, in.Src, opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Levels, depthNote(res.Depth)) }, err
		},
		Oracle: bfsOracle, Compare: exact,
	},
	{
		Name: "bfsdir", Form: HostSide,
		start: func(d *simt.Device, _ *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newBFSDirRun(d, in.G, in.Src, DirOptions{Options: opts})
			return r, func() Output { res := r.Result(); return res.output(res, res.Levels, depthNote(res.Depth)) }, err
		},
		Oracle: bfsOracle, Compare: exact,
	},
	{
		Name: "sssp", Form: Weighted,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := NewSSSPRun(d, dg, in.Src, opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Dist, "") }, err
		},
		Oracle: ssspOracle, Compare: exact, Summarize: summarizeDist,
	},
	{
		Name: "deltastep", Form: Weighted,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newDeltaSteppingRun(d, dg, in.Src, DeltaSteppingOptions{Options: opts})
			return r, func() Output { res := r.Result(); return res.output(res, res.Dist, "") }, err
		},
		Oracle: ssspOracle, Compare: exact,
	},
	{
		Name: "pagerank", Form: HostSide,
		start: func(d *simt.Device, _ *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := NewPageRankRun(d, in.G, PageRankOptions{Options: opts, Damping: float32(in.Damping), Iterations: in.Iterations})
			return r, func() Output { res := r.Result(); return res.output(res, res.Ranks, "") }, err
		},
		// The oracle runs the device's fixed iteration count.
		Oracle: func(in Input) Output {
			damping, iters := in.Damping, in.Iterations
			if damping == 0 {
				damping = 0.85
			}
			if iters == 0 {
				iters = 20
			}
			ranks64, rounds := cpualgo.PageRank(in.G, cpualgo.PageRankOptions{Damping: damping, MaxIters: iters, Tolerance: 1e-300})
			ranks := make([]float32, len(ranks64))
			for i, r := range ranks64 {
				ranks[i] = float32(r)
			}
			return Output{Rounds: rounds, Value: ranks}
		},
		Compare: within(1e-3, 1e-5), Summarize: summarizeRanks,
	},
	{
		Name: "cc", Form: Symmetrized,
		start: func(d *simt.Device, dg *DeviceGraph, _ Input, opts Options) (runner, func() Output, error) {
			r, err := NewCCRun(d, dg, opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Labels, "") }, err
		},
		Oracle:  func(in Input) Output { return oracle(cpualgo.ConnectedComponents(in.G)) },
		Compare: exact, Summarize: summarizeLabels,
	},
	{
		Name: "scc", Form: HostSide,
		start: func(d *simt.Device, _ *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newSCCRun(d, in.G, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, res.Labels, fmt.Sprintf("%d components, %d trimmed", res.Components, res.Trimmed))
			}, err
		},
		Oracle:  func(in Input) Output { return oracle(cpualgo.SCC(in.G)) },
		Compare: exact,
	},
	{
		Name: "nbrsum", Form: Plain,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newNeighborSumRun(d, dg, nbrsumValues(in.G.NumVertices()), opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Sums, "") }, err
		},
		Oracle: func(in Input) Output {
			return oracle(NeighborSumCPU(in.G.RowPtr, in.G.Col, nbrsumValues(in.G.NumVertices())))
		},
		Compare: exact,
	},
	{
		Name: "spmv", Form: Plain,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			vals, x := spmvMatrix(in.G)
			r, err := newSpMVRun(d, dg, vals, x, opts)
			return r, func() Output { res := r.Result(); return res.output(res, res.Y, "") }, err
		},
		Oracle: func(in Input) Output {
			vals, x := spmvMatrix(in.G)
			return oracle(SpMVCPU(in.G, vals, x))
		},
		Compare: within(1e-3, 1e-3),
	},
	{
		Name: "triangles", Form: Symmetrized,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newTriangleRun(d, in.G, dg, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, res.Total, fmt.Sprintf("%d triangles", res.Total))
			}, err
		},
		Oracle: func(in Input) Output {
			_, total := TriangleCountCPU(in.G)
			return oracle(total)
		},
		Compare: exact,
	},
	{
		Name: "kcore", Form: Symmetrized,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newKCoreRun(d, dg, in.CoreK, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, int64(res.Remaining), fmt.Sprintf("|%d-core| = %d", in.CoreK, res.Remaining))
			}, err
		},
		Oracle: func(in Input) Output {
			_, remaining := KCoreCPU(in.G, in.CoreK)
			return oracle(int64(remaining))
		},
		Compare: exact,
	},
	{
		Name: "mis", Form: Symmetrized,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newMISRun(d, dg, in.Seed, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, int64(res.Size), fmt.Sprintf("|MIS| = %d", res.Size))
			}, err
		},
		Oracle: func(in Input) Output {
			_, size := MISCPU(in.G, in.Seed)
			return oracle(int64(size))
		},
		Compare: exact,
	},
	{
		Name: "coloring", Form: Symmetrized,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newColoringRun(d, dg, in.Seed, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, res.Colors, fmt.Sprintf("%d colors", res.NumColors))
			}, err
		},
		Oracle: func(in Input) Output {
			colors, _ := GreedyColoringCPU(in.G)
			return oracle(colors)
		},
		// Many colorings are right: check the device's is proper.
		Compare: func(in Input, got, _ any) error { return ValidColoring(in.G, got.([]int32)) },
	},
	{
		Name: "bc", Form: HostSide,
		start: func(d *simt.Device, _ *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newBCRun(d, in.G, in.BCSources, opts)
			return r, func() Output {
				res := r.Result()
				var top float32
				for _, s := range res.Scores {
					if s > top {
						top = s
					}
				}
				sources := "1 source"
				if len(in.BCSources) != 1 {
					sources = fmt.Sprintf("%d sources", len(in.BCSources))
				}
				return res.output(res, res.Scores, fmt.Sprintf("max score %.1f (%s)", top, sources))
			}, err
		},
		Oracle:  func(in Input) Output { return oracle(BetweennessCentralityCPU(in.G, in.BCSources)) },
		Compare: within(1e-2, 1e-2),
	},
	{
		Name: "closeness", Form: HostSide,
		start: func(d *simt.Device, _ *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newClosenessRun(d, in.G, in.Samples, in.Seed, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, res.Scores, fmt.Sprintf("%d landmark samples", len(res.Sources)))
			}, err
		},
		Oracle: func(in Input) Output {
			return oracle(ClosenessCentralityCPU(in.G, closenessSources(in.G.NumVertices(), in.Samples, in.Seed)))
		},
		Compare: within(0, 1e-12),
	},
	{
		Name: "msbfs", Form: Plain,
		start: func(d *simt.Device, dg *DeviceGraph, in Input, opts Options) (runner, func() Output, error) {
			r, err := newMSBFSRun(d, dg, in.MSBFSSources, opts)
			return r, func() Output {
				res := r.Result()
				return res.output(res, res.Levels, fmt.Sprintf("%d sources, bit-parallel", len(in.MSBFSSources)))
			}, err
		},
		Oracle:  func(in Input) Output { return oracle(MSBFSCPU(in.G, in.MSBFSSources)) },
		Compare: exact,
	},
}
