// Graph-analytics pipeline: the library applied the way a downstream user
// would — run several analytics over one social graph, all on the simulated
// GPU with the warp-centric mapping, cross-checked against CPU oracles:
//
//   - triangle counting (clustering structure),
//   - k-core decomposition (dense community cores),
//   - maximal independent set (scheduling/seeding),
//   - connected components (reachability islands).
//
// Each analytic is an entry of the algorithm table, looked up by name.
package main

import (
	"fmt"
	"log"

	"maxwarp"
)

func main() {
	raw, err := maxwarp.RMAT(11, 8, maxwarp.DefaultRMATParams, 2026)
	if err != nil {
		log.Fatal(err)
	}
	// Analytics below want an undirected simple graph.
	g, err := raw.Symmetrize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph (undirected): %s\n\n", maxwarp.Stats(g))

	dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
	if err != nil {
		log.Fatal(err)
	}
	// run executes entry name on the device and checks it against the
	// entry's CPU oracle.
	run := func(name string, in maxwarp.Input) maxwarp.Output {
		a := maxwarp.Lookup(name)
		in.G = g
		out, err := a.Run(dev, in, maxwarp.Options{K: 32})
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Compare(in, out.Value, a.Oracle(in).Value); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return out
	}

	tri := run("triangles", maxwarp.Input{})
	fmt.Printf("triangles:        %8d        (%.2f Mcycles)\n",
		tri.Value, float64(tri.Stats.Cycles)/1e6)

	for _, k := range []int32{2, 4, 8} {
		core := run("kcore", maxwarp.Input{CoreK: k})
		fmt.Printf("%d-core size:      %8d vertices (%d peeling rounds)\n",
			k, core.Value, core.Rounds)
	}

	mis := run("mis", maxwarp.Input{Seed: 7})
	fmt.Printf("max indep. set:   %8d vertices (%d rounds)\n", mis.Value, mis.Rounds)

	cc := run("cc", maxwarp.Input{})
	comps := map[int32]int{}
	for _, l := range cc.Value.([]int32) {
		comps[l]++
	}
	largest := 0
	for _, size := range comps {
		if size > largest {
			largest = size
		}
	}
	fmt.Printf("components:       %8d        (largest %d vertices)\n\n", len(comps), largest)
	fmt.Println("all results verified against CPU oracles ✓")
}
