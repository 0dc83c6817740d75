package main

import (
	"flag"
	"fmt"
	"strings"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// Defaults of the kernel inputs that the algo flags set and profile fixes.
const (
	defaultCoreK   = 2
	defaultSamples = 4
)

// algoParams carries the kernel inputs the algo, sanitize and profile
// subcommands take from their flags.
type algoParams struct {
	seed    uint64
	coreK   int
	iters   int
	samples int
	// fileWeights are the graph file's edge weights; generated graphs get
	// seeded weights in [1,16].
	fileWeights []int32
}

// algoInput is the input the CLI hands table entry a on graph g: the
// single-source kernels start at src, BC from {src} and MS-BFS from
// {src, 0}.
func algoInput(a *gpualgo.Algorithm, g *graph.CSR, src graph.VertexID, p algoParams) (gpualgo.Input, error) {
	view, err := a.Graph(g)
	if err != nil {
		return gpualgo.Input{}, err
	}
	in := gpualgo.Input{
		G: view, Src: src,
		BCSources:    []graph.VertexID{src},
		MSBFSSources: []graph.VertexID{src, 0},
		Iterations:   p.iters, CoreK: int32(p.coreK), Seed: p.seed, Samples: p.samples,
	}
	if a.Form == gpualgo.Weighted {
		in.Weights = p.fileWeights
		if in.Weights == nil {
			in.Weights = gengraph.EdgeWeights(g, 16, p.seed)
		}
	}
	return in, nil
}

// lookupKernel returns the table entry called name.
func lookupKernel(name string) (*gpualgo.Algorithm, error) {
	a := gpualgo.Lookup(name)
	if a == nil {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	return a, nil
}

// cmdAlgo runs any of the library's kernels once and prints its stats — the
// generic sibling of the bfs subcommand.
func cmdAlgo(args []string) error {
	fs := flag.NewFlagSet("algo", flag.ContinueOnError)
	name := fs.String("name", "bfs", strings.Join(gpualgo.Names(false), " | "))
	preset := fs.String("preset", "", "workload preset name (see 'maxwarp list')")
	file := fs.String("graph", "", "graph file (.bin or edge list)")
	scale := fs.Int("scale", 12, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed")
	k := fs.Int("k", 32, "virtual warp width (1 = thread-per-vertex baseline)")
	dynamic := fs.Bool("dynamic", false, "dynamic workload distribution")
	coreK := fs.Int("corek", defaultCoreK, "k for the kcore kernel")
	iters := fs.Int("iters", 10, "iterations for pagerank")
	samples := fs.Int("samples", defaultSamples, "landmark samples for closeness")
	inject := fs.String("inject", "", "fault-injection spec: abort=N,bitflip=N,buffers=a|b,loss=N,seed=N,maxfaults=N")
	retries := fs.Int("retries", 3, "per-iteration retry budget under -inject (min 1)")
	parallel := fs.Int("parallel", 0, "host goroutines driving SMs (0 = one per CPU, 1 = sequential event loop)")
	sanitized := fs.Bool("sanitize", false, "run under the kernel sanitizer and report hazards after the stats")
	sinks := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := lookupKernel(*name)
	if err != nil {
		return err
	}
	g, gname, fileWeights, err := loadWorkloadWeighted(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	dcfg := simt.DefaultConfig()
	dcfg.ParallelSMs = *parallel
	dcfg.Sanitize = *sanitized
	dev, err := simt.NewDevice(dcfg)
	if err != nil {
		return err
	}
	san := armSanitizer(dev, *sanitized)
	sinks.arm(dev, 64, 4096)
	opts := gpualgo.Options{K: *k, Dynamic: *dynamic, Metrics: sinks.metrics}
	src := graph.LargestOutComponentSeed(g)

	in, err := algoInput(a, g, src, algoParams{seed: *seed, coreK: *coreK, iters: *iters, samples: *samples, fileWeights: fileWeights})
	if err != nil {
		return err
	}
	header := fmt.Sprintf("graph    %s (%s)", gname, graph.Stats(g))
	if *inject != "" {
		return runInjected(dev, a, in, opts, *inject, *retries, header, *k, *dynamic)
	}
	run, err := a.Run(dev, in, opts)
	if err != nil {
		return err
	}

	cfg := dev.Config()
	fmt.Println(header)
	fmt.Printf("kernel   %s  K=%d dynamic=%v  rounds=%d", a.Name, *k, *dynamic, run.Rounds)
	if run.Note != "" {
		fmt.Printf("  [%s]", run.Note)
	}
	fmt.Println()
	fmt.Printf("cycles   %d (%.3f ms at %.1f GHz)\n", run.Stats.Cycles, run.Stats.TimeMS(cfg.ClockGHz), cfg.ClockGHz)
	fmt.Printf("stats    %s\n", run.Stats.String())
	if err := sinks.flush(&run.Stats); err != nil {
		return err
	}
	return reportSanitizer(san, false)
}
