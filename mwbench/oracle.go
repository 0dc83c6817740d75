package main

import (
	"fmt"
	"math"

	"maxwarp/internal/cpualgo"
	"maxwarp/internal/graph"
	"maxwarp/internal/serve"
)

// pageRankIters is the daemon's default PageRank iteration count.
const pageRankIters = 20

// answer is the CPU oracle's result for one (graph, algorithm) pair: the
// full output vector plus the summaries a 200 response carries.
type answer struct {
	levels, dist, labels []int32
	ranks                []float64

	reached    int
	depth      int32
	maxDist    int32
	components int
	rankSum    float64
	maxRank    float64
}

// oracle computes the CPU reference answer of algo on g (weights w, source
// src; PageRank runs iters fixed iterations).
func oracle(algo string, g *graph.CSR, w []int32, src graph.VertexID, iters int) (*answer, error) {
	a := &answer{}
	switch algo {
	case "bfs":
		a.levels = cpualgo.BFSSequential(g, src)
		for _, l := range a.levels {
			if l >= 0 {
				a.reached++
				a.depth = max(a.depth, l)
			}
		}
	case "sssp":
		a.dist = cpualgo.SSSPDijkstra(g, w, src)
		for _, d := range a.dist {
			if d < cpualgo.InfDist {
				a.reached++
				a.maxDist = max(a.maxDist, d)
			}
		}
	case "cc":
		sym, err := g.Symmetrize()
		if err != nil {
			return nil, err
		}
		a.labels = cpualgo.ConnectedComponents(sym)
		seen := make(map[int32]bool)
		for _, l := range a.labels {
			seen[l] = true
		}
		a.components = len(seen)
	case "pagerank":
		a.ranks, _ = cpualgo.PageRank(g, cpualgo.PageRankOptions{Damping: 0.85, MaxIters: iters, Tolerance: 1e-300})
		for _, r := range a.ranks {
			a.rankSum += r
			a.maxRank = math.Max(a.maxRank, r)
		}
	default:
		return nil, fmt.Errorf("mwbench: no oracle for %q", algo)
	}
	return a, nil
}

// checkSummary compares the summary of a 200 query response with the
// oracle's answer.
func (a *answer) checkSummary(algo string, r *serve.ResultPayload) error {
	switch algo {
	case "bfs":
		if r.Reached != a.reached || r.Depth != a.depth {
			return fmt.Errorf("bfs reached/depth %d/%d, oracle %d/%d", r.Reached, r.Depth, a.reached, a.depth)
		}
	case "sssp":
		if r.Reached != a.reached || r.MaxFiniteDist != a.maxDist {
			return fmt.Errorf("sssp reached/max_finite_dist %d/%d, oracle %d/%d", r.Reached, r.MaxFiniteDist, a.reached, a.maxDist)
		}
	case "cc":
		if r.Components != a.components {
			return fmt.Errorf("cc components %d, oracle %d", r.Components, a.components)
		}
	case "pagerank":
		if math.Abs(r.RankSum-a.rankSum) > 1e-3 {
			return fmt.Errorf("pagerank rank_sum %g, oracle %g", r.RankSum, a.rankSum)
		}
		if int(r.TopVertex) >= len(a.ranks) || r.TopVertex < 0 || a.ranks[r.TopVertex] < a.maxRank*(1-1e-3)-1e-6 {
			return fmt.Errorf("pagerank top_vertex %d is not a top-ranked vertex", r.TopVertex)
		}
	}
	return nil
}

// checkLevels compares a device BFS level vector with the oracle.
func (a *answer) checkLevels(got []int32) error { return equalI32("bfs levels", got, a.levels) }

// checkDist compares a device SSSP distance vector with the oracle.
func (a *answer) checkDist(got []int32) error { return equalI32("sssp dist", got, a.dist) }

// checkLabels checks that device CC labels induce the oracle's partition.
func (a *answer) checkLabels(got []int32) error {
	if len(got) != len(a.labels) {
		return fmt.Errorf("cc labels: length %d, oracle %d", len(got), len(a.labels))
	}
	fwd, rev := make(map[int32]int32), make(map[int32]int32)
	for v, l := range got {
		want := a.labels[v]
		if m, ok := fwd[l]; ok && m != want {
			return fmt.Errorf("cc labels: vertex %d joins the wrong component", v)
		}
		if m, ok := rev[want]; ok && m != l {
			return fmt.Errorf("cc labels: vertex %d splits an oracle component", v)
		}
		fwd[l], rev[want] = want, l
	}
	return nil
}

// checkRanks compares a device PageRank vector with the oracle, within the
// tolerance the repository's own PageRank tests use.
func (a *answer) checkRanks(got []float32) error {
	if len(got) != len(a.ranks) {
		return fmt.Errorf("pagerank ranks: length %d, oracle %d", len(got), len(a.ranks))
	}
	for v, want := range a.ranks {
		if diff := math.Abs(float64(got[v]) - want); diff > 1e-3*(want+1e-9)+1e-5 {
			return fmt.Errorf("pagerank rank[%d] = %g, oracle %g", v, got[v], want)
		}
	}
	return nil
}

func equalI32(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, oracle %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// epochGraph is one epoch of a served graph as the checker reconstructs it.
type epochGraph struct {
	g   *graph.CSR
	w   []int32
	src graph.VertexID // the daemon's default source on this epoch
}

func newEpochGraph(g *graph.CSR, w []int32) *epochGraph {
	return &epochGraph{g: g, w: w, src: graph.LargestOutComponentSeed(g)}
}

type answerKey struct {
	graph string
	epoch int64
	algo  string
}

// checker verifies served answers against the CPU oracle on the same
// epoch's graph. It mirrors every applied mutation batch into its own
// graph.Delta per graph, so it knows each epoch's edge set without asking
// the server.
type checker struct {
	epochs  map[string][]*epochGraph
	mirrors map[string]*graph.Delta
	answers map[answerKey]*answer
}

// newChecker starts from epoch 0 of every served graph.
func newChecker(graphs map[string]*epochGraph) *checker {
	c := &checker{
		epochs:  make(map[string][]*epochGraph),
		mirrors: make(map[string]*graph.Delta),
		answers: make(map[answerKey]*answer),
	}
	for name, eg := range graphs {
		c.epochs[name] = []*epochGraph{eg}
	}
	return c
}

// mutate applies one batch the server acknowledged with resp to the mirror
// of graph name, and checks resp against the mirror's own account. Batches
// must arrive in the server's epoch order.
func (c *checker) mutate(name string, batch []graph.EdgeMutation, resp *serve.MutateResponse) error {
	eps, ok := c.epochs[name]
	if !ok {
		return fmt.Errorf("mutate: unknown graph %q", name)
	}
	dl := c.mirrors[name]
	if dl == nil {
		var err error
		if dl, err = graph.NewDelta(eps[0].g, eps[0].w); err != nil {
			return err
		}
		c.mirrors[name] = dl
	}
	_, stats, err := dl.Apply(batch)
	if err != nil {
		return err
	}
	g, w, err := dl.Compact()
	if err != nil {
		return err
	}
	epoch := int64(len(eps))
	c.epochs[name] = append(eps, newEpochGraph(g, w))
	if resp.Epoch != epoch || resp.Edges != g.NumEdges() || resp.Inserted != stats.Inserted || resp.Deleted != stats.Deleted {
		return fmt.Errorf("mutate %s: server epoch %d |E|=%d +%d -%d, mirror epoch %d |E|=%d +%d -%d",
			name, resp.Epoch, resp.Edges, resp.Inserted, resp.Deleted, epoch, g.NumEdges(), stats.Inserted, stats.Deleted)
	}
	return nil
}

// answer returns the oracle answer of algo on the given epoch of a graph.
func (c *checker) answer(name string, epoch int64, algo string) (*answer, error) {
	eps := c.epochs[name]
	if epoch < 0 || epoch >= int64(len(eps)) {
		return nil, fmt.Errorf("graph %q has no epoch %d", name, epoch)
	}
	key := answerKey{name, epoch, algo}
	if a, ok := c.answers[key]; ok {
		return a, nil
	}
	eg := eps[epoch]
	a, err := oracle(algo, eg.g, eg.w, eg.src, pageRankIters)
	if err != nil {
		return nil, err
	}
	c.answers[key] = a
	return a, nil
}

// checkQuery verifies one 200 response to a query for item it.
func (c *checker) checkQuery(it serveItem, r *serve.QueryResponse) error {
	if r.Algo != it.algo || r.Graph != it.graph {
		return fmt.Errorf("%s: response is for %s@%s", it.name, r.Algo, r.Graph)
	}
	a, err := c.answer(it.graph, r.Epoch, it.algo)
	if err != nil {
		return fmt.Errorf("%s: %w", it.name, err)
	}
	if err := a.checkSummary(it.algo, &r.Result); err != nil {
		return fmt.Errorf("%s epoch %d: %w", it.name, r.Epoch, err)
	}
	return nil
}
