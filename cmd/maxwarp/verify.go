package main

import (
	"flag"
	"fmt"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// cmdVerify cross-checks every device kernel against its CPU oracle on a
// chosen workload — the user-facing self-test.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	preset := fs.String("preset", "LiveJournal-like", "workload preset name")
	scale := fs.Int("scale", 9, "log2 vertices")
	seed := fs.Uint64("seed", 42, "generator seed")
	k := fs.Int("k", 32, "virtual warp width to verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := gengraph.PresetByName(*preset)
	if err != nil {
		return err
	}
	g, err := p.Build(*scale, *seed)
	if err != nil {
		return err
	}
	src := graph.LargestOutComponentSeed(g)
	weights := gengraph.EdgeWeights(g, 12, *seed)
	opts := gpualgo.Options{K: *k}

	fmt.Printf("verifying all kernels on %s (scale %d, K=%d) against CPU oracles\n\n", p.Name, *scale, *k)
	failures := 0
	for _, a := range gpualgo.Algorithms() {
		if err := verifyOne(&a, g, weights, src, *seed, opts); err != nil {
			failures++
			fmt.Printf("  FAIL %-14s %v\n", a.Name, err)
			continue
		}
		fmt.Printf("  ok   %s\n", a.Name)
	}
	if failures > 0 {
		return fmt.Errorf("%d kernel(s) failed verification", failures)
	}
	fmt.Println("\nall kernels verified ✓")
	return nil
}

// verifyOne runs entry a on a fresh device and compares its answer with the
// entry's oracle. PageRank runs 10 iterations, k-core peels the 3-core, BC
// starts from src and MS-BFS from {src, 0, n/2}.
func verifyOne(a *gpualgo.Algorithm, g *graph.CSR, weights []int32, src graph.VertexID, seed uint64, opts gpualgo.Options) error {
	view, err := a.Graph(g)
	if err != nil {
		return err
	}
	in := gpualgo.Input{
		G: view, Weights: weights, Src: src,
		BCSources:    []graph.VertexID{src},
		MSBFSSources: []graph.VertexID{src, 0, graph.VertexID(g.NumVertices() / 2)},
		Iterations:   10, CoreK: 3, Seed: seed, Samples: defaultSamples,
	}
	d, err := simt.NewDevice(simt.DefaultConfig())
	if err != nil {
		return err
	}
	got, err := a.Run(d, in, opts)
	if err != nil {
		return err
	}
	return a.Compare(in, got.Value, a.Oracle(in).Value)
}
