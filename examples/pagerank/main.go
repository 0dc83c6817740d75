// PageRank: the virtual warp-centric method applied beyond BFS. The pull
// kernel gathers rank contributions over each vertex's in-neighbors — the
// same irregular adjacency-scan shape — so the mapping trade-off carries
// over unchanged. The example ranks a citation-network-like graph and
// reports the speedup of the warp-centric pull kernel.
package main

import (
	"fmt"
	"log"
	"sort"

	"maxwarp"
)

func main() {
	g, err := maxwarp.RMAT(12, 8, maxwarp.DefaultRMATParams, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("citation graph: %s\n\n", maxwarp.Stats(g))

	run := func(k int) maxwarp.Output {
		dev, err := maxwarp.NewDevice(maxwarp.DefaultDeviceConfig())
		if err != nil {
			log.Fatal(err)
		}
		out, err := maxwarp.Lookup("pagerank").Run(dev, maxwarp.Input{G: g, Iterations: 15}, maxwarp.Options{K: k})
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	base := run(1)
	warp := run(32)
	fmt.Printf("baseline pull (K=1):      %10d cycles\n", base.Stats.Cycles)
	fmt.Printf("warp-centric pull (K=32): %10d cycles  (%.2fx)\n\n",
		warp.Stats.Cycles, float64(base.Stats.Cycles)/float64(warp.Stats.Cycles))

	type ranked struct {
		v    int
		rank float32
	}
	ranks := warp.Value.([]float32)
	top := make([]ranked, len(ranks))
	for v, r := range ranks {
		top[v] = ranked{v, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("top 10 vertices by rank:")
	for i := 0; i < 10 && i < len(top); i++ {
		fmt.Printf("  #%-2d vertex %-6d rank %.5f  (in-degree matters, not just out)\n",
			i+1, top[i].v, top[i].rank)
	}
}
