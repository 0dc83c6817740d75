package maxwarp_test

import (
	"fmt"
	"slices"
	"strings"

	"maxwarp"
)

// Example demonstrates the library's headline result: the same BFS runs as
// the thread-per-vertex baseline (K=1) and as the paper's virtual
// warp-centric mapping (K=32), and the skewed graph makes the difference.
func Example() {
	g, _ := maxwarp.RMAT(10, 16, maxwarp.DefaultRMATParams, 42)
	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
	dg, _ := maxwarp.UploadGraph(dev, g)

	base, _ := maxwarp.BFS(dev, dg, 0, maxwarp.Options{K: 1})
	warp, _ := maxwarp.BFS(dev, dg, 0, maxwarp.Options{K: 32})

	fmt.Println("same answer:", base.Depth == warp.Depth)
	fmt.Println("warp-centric wins by >5x:", base.Stats.Cycles > 5*warp.Stats.Cycles)
	// Output:
	// same answer: true
	// warp-centric wins by >5x: true
}

// ExampleAutoTune picks the best virtual warp width for a graph
// empirically — the tuning loop the paper's K knob implies.
func ExampleAutoTune() {
	g, _ := maxwarp.Mesh2D(32, 32) // regular degree-4 road-network regime
	cfg := maxwarp.DefaultDeviceConfig()
	res, _ := maxwarp.AutoTune(cfg, maxwarp.Lookup("bfs"), maxwarp.Input{G: g}, maxwarp.Options{})
	fmt.Println("narrow virtual warps win on a mesh:", res.BestK <= 8)
	// Output:
	// narrow virtual warps win on a mesh: true
}

// ExampleAlgorithms lists the algorithm table: every kernel the repository
// runs on the simulated GPU, each with its CPU oracle.
func ExampleAlgorithms() {
	var names []string
	for _, a := range maxwarp.Algorithms() {
		names = append(names, a.Name)
	}
	fmt.Println(strings.Join(names, " "))
	// Output:
	// bfs bfsfrontier bfsdir sssp deltastep pagerank cc scc nbrsum spmv triangles kcore mis coloring bc closeness msbfs
}

// ExampleSSSP runs weighted shortest paths and cross-checks the device
// result against the CPU Dijkstra oracle of the table's "sssp" entry.
func ExampleSSSP() {
	g, _ := maxwarp.RMAT(9, 8, maxwarp.DefaultRMATParams, 7)
	weights := maxwarp.EdgeWeights(g, 10, 1)
	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())

	dist, _ := maxwarp.SSSP(dev, g, weights, 0, maxwarp.Options{K: 16})
	oracle := maxwarp.Lookup("sssp").Oracle(maxwarp.Input{G: g, Weights: weights}).Value.([]int32)
	fmt.Println("matches Dijkstra:", slices.Equal(dist, oracle))
	// Output:
	// matches Dijkstra: true
}

// ExampleTriangleCount counts triangles with one virtual warp per vertex.
func ExampleTriangleCount() {
	raw, _ := maxwarp.RMAT(9, 6, maxwarp.DefaultRMATParams, 3)
	g, _ := raw.Symmetrize()
	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())

	total, _ := maxwarp.TriangleCount(dev, g, maxwarp.Options{K: 32})
	oracle := maxwarp.Lookup("triangles").Oracle(maxwarp.Input{G: g}).Value.(int64)
	fmt.Println("matches CPU oracle:", total == oracle)
	// Output:
	// matches CPU oracle: true
}

// ExampleExecute runs BFS on a device that aborts every second launch.
// Execute restores the last completed level and retries it, so the run
// still answers from the device, and the answer matches the oracle.
func ExampleExecute() {
	g, _ := maxwarp.RMAT(8, 8, maxwarp.DefaultRMATParams, 11)
	dev, _ := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
	dev.SetFaultPlan(&maxwarp.FaultPlan{Seed: 5, AbortEvery: 2})

	a := maxwarp.Lookup("bfs")
	in := maxwarp.Input{G: g}
	out, o, _ := maxwarp.Execute(dev, a, in, maxwarp.Options{K: 8}, maxwarp.ResilientPolicy{MaxRetries: 4})
	fmt.Println("retried:", o.Retries > 0)
	fmt.Println("degraded:", o.Degraded)
	fmt.Println("matches the CPU oracle:", a.Compare(in, out.Value, a.Oracle(in).Value) == nil)
	// Output:
	// retried: true
	// degraded: false
	// matches the CPU oracle: true
}
