package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/gengraph"
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/report"
	"maxwarp/internal/simt"
)

// cmdDynamic streams random mutation batches over a graph and compares
// incremental repair against full recomputation on the compacted graph,
// verifying every repaired result against the CPU oracle. The cycle totals
// count device launches only; the host-side invalidation phase stands in for
// the tiny host bookkeeping CUDA codes do between launches.
func cmdDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ContinueOnError)
	preset := fs.String("preset", "", "workload preset name (see 'maxwarp list')")
	file := fs.String("graph", "", "graph file (.bin, .gr, or edge list)")
	scale := fs.Int("scale", 10, "log2 vertices for presets")
	seed := fs.Uint64("seed", 42, "generator seed (also seeds the mutation stream)")
	k := fs.Int("k", 32, "virtual warp width")
	batches := fs.Int("batches", 8, "mutation batches to stream")
	size := fs.Int("size", 8, "mutations per batch")
	delFrac := fs.Float64("delfrac", 0.5, "fraction of each batch that deletes live edges (rest inserts)")
	algos := fs.String("algo", "bfs,sssp,cc,pagerank", "comma-separated algorithms to stream")
	parallel := fs.Int("parallel", 0, "host goroutines driving SMs (0 = one per CPU, 1 = sequential event loop)")
	format := fs.String("format", "text", "output format: text, md, csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, name, weights, err := loadWorkloadWeighted(*preset, *file, *scale, *seed)
	if err != nil {
		return err
	}
	if weights == nil {
		weights = gengraph.EdgeWeights(g, 10, *seed^0x5bf03635)
	}
	dcfg := simt.DefaultConfig()
	dcfg.ParallelSMs = *parallel
	dev, err := simt.NewDevice(dcfg)
	if err != nil {
		return err
	}
	opts := gpualgo.Options{K: *k}

	fmt.Printf("graph    %s (%s)\n", name, graph.Stats(g))
	fmt.Printf("stream   %d batches x %d mutations, K=%d, seed %d\n\n", *batches, *size, *k, *seed)

	t := &report.Table{
		ID:    "dynamic",
		Title: fmt.Sprintf("incremental repair vs full recompute (%d batches x %d mutations)", *batches, *size),
		Columns: []string{"algo", "inc kcycles/batch", "full kcycles/batch", "speedup",
			"invalidated", "seeds", "rounds", "verified"},
	}
	for _, algo := range strings.Split(*algos, ",") {
		algo = strings.TrimSpace(algo)
		var rep *dynReport
		switch algo {
		case "bfs":
			rep, err = dynBFS(dev, g, opts, *seed, *batches, *size, *delFrac)
		case "sssp":
			rep, err = dynSSSP(dev, g, weights, opts, *seed, *batches, *size, *delFrac)
		case "cc":
			rep, err = dynCC(dev, g, opts, *seed, *batches, *size, *delFrac)
		case "pagerank":
			rep, err = dynPageRank(dev, g, opts, *seed, *batches, *size, *delFrac)
		default:
			return fmt.Errorf("unknown algo %q (want bfs|sssp|cc|pagerank)", algo)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		b := float64(*batches)
		t.AddRow(algo,
			report.F(float64(rep.incCycles)/b/1e3, 1),
			report.F(float64(rep.fullCycles)/b/1e3, 1),
			report.F(float64(rep.fullCycles)/float64(rep.incCycles), 2),
			report.F(float64(rep.invalidated)/b, 1),
			report.F(float64(rep.seeds)/b, 1),
			report.F(float64(rep.rounds)/b, 1),
			"yes")
	}
	switch *format {
	case "md":
		fmt.Println(t.Markdown())
	case "csv":
		fmt.Println(t.CSV())
	default:
		fmt.Print(t.Text())
	}
	return nil
}

// dynReport accumulates one algorithm's stream totals. Every batch was
// oracle-verified before it is counted, so a returned report implies the
// repaired results matched a from-scratch computation on the compacted graph.
type dynReport struct {
	incCycles, fullCycles      int64
	invalidated, seeds, rounds int
}

func (r *dynReport) add(inc, full int64, info gpualgo.RepairInfo) {
	r.incCycles += inc
	r.fullCycles += full
	r.invalidated += info.Invalidated
	r.seeds += info.Seeds
	r.rounds += info.Rounds
}

// randomBatch builds one mutation batch: a delFrac share of deletions
// sampled from the live edge set, the rest random insertions (duplicates
// and self-loops become counted no-ops). Symmetric batches emit both
// directions of every edge.
func randomBatch(rng *rand.Rand, dl *graph.Delta, size int, delFrac float64, symmetric, weighted bool) []graph.EdgeMutation {
	n := int32(dl.NumVertices())
	type edge struct{ u, v graph.VertexID }
	var live []edge
	for u := int32(0); u < n; u++ {
		dl.OutNeighborsLive(u, func(v graph.VertexID, _ int32) bool {
			if !symmetric || u < v {
				live = append(live, edge{u, v})
			}
			return true
		})
	}
	var batch []graph.EdgeMutation
	add := func(m graph.EdgeMutation) {
		batch = append(batch, m)
		if symmetric {
			m.Src, m.Dst = m.Dst, m.Src
			batch = append(batch, m)
		}
	}
	deletes := int(delFrac * float64(size))
	for i := 0; i < size; i++ {
		if i < deletes && len(live) > 0 {
			e := live[rng.Intn(len(live))]
			add(graph.EdgeMutation{Src: e.u, Dst: e.v, Del: true})
			continue
		}
		var w int32 = 1
		if weighted {
			w = 1 + rng.Int31n(9)
		}
		add(graph.EdgeMutation{Src: rng.Int31n(n), Dst: rng.Int31n(n), Weight: w})
	}
	return batch
}

func verifyI32(algo string, got, want []int32) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: vertex %d: incremental %d, oracle %d", algo, i, got[i], want[i])
		}
	}
	return nil
}

func dynBFS(dev *simt.Device, g *graph.CSR, opts gpualgo.Options, seed uint64, batches, size int, delFrac float64) (*dynReport, error) {
	dl, err := graph.NewDelta(g, nil)
	if err != nil {
		return nil, err
	}
	src := graph.LargestOutComponentSeed(g)
	full, err := gpualgo.BFSFrontier(dev, gpualgo.Upload(dev, g), src, opts)
	if err != nil {
		return nil, err
	}
	prev := full.Levels
	rng := rand.New(rand.NewSource(int64(seed)))
	rep := &dynReport{}
	for b := 0; b < batches; b++ {
		applied, _, err := dl.Apply(randomBatch(rng, dl, size, delFrac, false, false))
		if err != nil {
			return nil, err
		}
		res, info, err := gpualgo.IncrementalBFS(dev, dl, src, prev, applied, opts)
		if err != nil {
			return nil, err
		}
		fres, err := gpualgo.BFSFrontier(dev, gpualgo.Upload(dev, info.Graph), src, opts)
		if err != nil {
			return nil, err
		}
		if err := verifyI32("bfs", res.Levels, cpualgo.BFSSequential(info.Graph, src)); err != nil {
			return nil, err
		}
		rep.add(res.Stats.Cycles, fres.Stats.Cycles, info)
		prev = res.Levels
	}
	return rep, nil
}

func dynSSSP(dev *simt.Device, g *graph.CSR, weights []int32, opts gpualgo.Options, seed uint64, batches, size int, delFrac float64) (*dynReport, error) {
	dl, err := graph.NewDelta(g, weights)
	if err != nil {
		return nil, err
	}
	src := graph.LargestOutComponentSeed(g)
	dg, err := gpualgo.UploadWeighted(dev, g, weights)
	if err != nil {
		return nil, err
	}
	full, err := gpualgo.SSSP(dev, dg, src, opts)
	if err != nil {
		return nil, err
	}
	prev := full.Dist
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	rep := &dynReport{}
	for b := 0; b < batches; b++ {
		applied, _, err := dl.Apply(randomBatch(rng, dl, size, delFrac, false, true))
		if err != nil {
			return nil, err
		}
		res, info, err := gpualgo.IncrementalSSSP(dev, dl, src, prev, applied, opts)
		if err != nil {
			return nil, err
		}
		fdg, err := gpualgo.UploadWeighted(dev, info.Graph, info.Weights)
		if err != nil {
			return nil, err
		}
		fres, err := gpualgo.SSSP(dev, fdg, src, opts)
		if err != nil {
			return nil, err
		}
		if err := verifyI32("sssp", res.Dist, cpualgo.SSSPDijkstra(info.Graph, info.Weights, src)); err != nil {
			return nil, err
		}
		rep.add(res.Stats.Cycles, fres.Stats.Cycles, info)
		prev = res.Dist
	}
	return rep, nil
}

func dynCC(dev *simt.Device, g *graph.CSR, opts gpualgo.Options, seed uint64, batches, size int, delFrac float64) (*dynReport, error) {
	sym, err := g.Symmetrize()
	if err != nil {
		return nil, err
	}
	dl, err := graph.NewDelta(sym, nil)
	if err != nil {
		return nil, err
	}
	full, err := gpualgo.ConnectedComponents(dev, gpualgo.Upload(dev, sym), opts)
	if err != nil {
		return nil, err
	}
	prev := full.Labels
	rng := rand.New(rand.NewSource(int64(seed) + 2))
	rep := &dynReport{}
	for b := 0; b < batches; b++ {
		applied, _, err := dl.Apply(randomBatch(rng, dl, size, delFrac, true, false))
		if err != nil {
			return nil, err
		}
		res, info, err := gpualgo.IncrementalCC(dev, dl, prev, applied, opts)
		if err != nil {
			return nil, err
		}
		fres, err := gpualgo.ConnectedComponents(dev, gpualgo.Upload(dev, info.Graph), opts)
		if err != nil {
			return nil, err
		}
		if err := verifyI32("cc", res.Labels, cpualgo.ConnectedComponents(info.Graph)); err != nil {
			return nil, err
		}
		rep.add(res.Stats.Cycles, fres.Stats.Cycles, info)
		prev = res.Labels
	}
	return rep, nil
}

func dynPageRank(dev *simt.Device, g *graph.CSR, opts gpualgo.Options, seed uint64, batches, size int, delFrac float64) (*dynReport, error) {
	dl, err := graph.NewDelta(g, nil)
	if err != nil {
		return nil, err
	}
	propts := gpualgo.PageRankOptions{Options: opts, Iterations: 100, Tolerance: 1e-6}
	// A cold start on the unmutated graph establishes the warm-start state.
	full, _, err := gpualgo.DeltaPageRank(dev, dl, nil, propts)
	if err != nil {
		return nil, err
	}
	prev := full.Ranks
	rng := rand.New(rand.NewSource(int64(seed) + 3))
	rep := &dynReport{}
	for b := 0; b < batches; b++ {
		if _, _, err := dl.Apply(randomBatch(rng, dl, size, delFrac, false, false)); err != nil {
			return nil, err
		}
		res, info, err := gpualgo.DeltaPageRank(dev, dl, prev, propts)
		if err != nil {
			return nil, err
		}
		// Full recompute baseline: the same kernel and stopping rule, cold
		// started on the same delta — the only difference is the warm start,
		// so the cycle ratio isolates the incremental win.
		fres, _, err := gpualgo.DeltaPageRank(dev, dl, nil, propts)
		if err != nil {
			return nil, err
		}
		oracle, _ := cpualgo.PageRank(info.Graph, cpualgo.PageRankOptions{MaxIters: 500, Tolerance: 1e-10})
		for v := range oracle {
			if d := math.Abs(float64(res.Ranks[v]) - oracle[v]); d > 1e-3*(oracle[v]+1e-9)+1e-4 {
				return nil, fmt.Errorf("pagerank: vertex %d: incremental %g, oracle %g", v, res.Ranks[v], oracle[v])
			}
		}
		rep.add(res.Stats.Cycles, fres.Stats.Cycles, info)
		prev = res.Ranks
	}
	return rep, nil
}
