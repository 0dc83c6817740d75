// Road-network regime: the other end of the paper's spectrum. On a uniform
// low-degree mesh there are no hub vertices to balance, so wide virtual
// warps only waste lanes — the best K is small and the baseline is
// competitive. The example also runs weighted shortest paths (SSSP), the
// natural road-network query, and cross-checks it against the CPU oracle.
package main

import (
	"fmt"
	"log"

	"maxwarp"
)

func main() {
	// A 64x64 grid with bidirectional streets.
	g, err := maxwarp.Mesh2D(64, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %s\n\n", maxwarp.Stats(g))

	fmt.Println("BFS cost vs virtual warp width (expect small K to win here):")
	var bestK int
	var bestCycles int64
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
		if err != nil {
			log.Fatal(err)
		}
		dg, err := maxwarp.UploadGraph(dev, g)
		if err != nil {
			log.Fatal(err)
		}
		res, err := maxwarp.BFS(dev, dg, 0, maxwarp.Options{K: k})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  K=%-2d  %9d cycles  useful util %.2f\n",
			k, res.Stats.Cycles, res.Stats.UsefulUtilization())
		if bestCycles == 0 || res.Stats.Cycles < bestCycles {
			bestK, bestCycles = k, res.Stats.Cycles
		}
	}
	fmt.Printf("best width on this regular graph: K=%d\n\n", bestK)

	// Shortest travel times from the depot at the grid corner.
	weights := maxwarp.EdgeWeights(g, 30, 7) // travel minutes per street
	dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
	if err != nil {
		log.Fatal(err)
	}
	sssp := maxwarp.Lookup("sssp")
	in := maxwarp.Input{G: g, Weights: weights}
	res, err := sssp.Run(dev, in, maxwarp.Options{K: bestK})
	if err != nil {
		log.Fatal(err)
	}
	if err := sssp.Compare(in, res.Value, sssp.Oracle(in).Value); err != nil {
		log.Fatalf("device SSSP disagrees with Dijkstra: %v", err)
	}
	far, farDist := 0, int32(0)
	for v, d := range res.Value.([]int32) {
		if d < maxwarp.InfDist && d > farDist {
			far, farDist = v, d
		}
	}
	fmt.Printf("SSSP from depot 0 (K=%d): %d relaxation rounds, %d cycles\n",
		bestK, res.Rounds, res.Stats.Cycles)
	fmt.Printf("farthest intersection: %d at %d minutes (matches CPU Dijkstra)\n",
		far, farDist)
}
