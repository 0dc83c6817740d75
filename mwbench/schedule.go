package main

import (
	"fmt"
	"sort"
	"time"

	"maxwarp/internal/graph"
	"maxwarp/internal/serve"
	"maxwarp/internal/xrand"
)

// serveItem is one query kind of the served mix: an algorithm on a named
// graph, always at the daemon's default source, K and iteration count.
type serveItem struct {
	name, algo, graph string
	// weight is the item's share of the daemon's default loadtest mix
	// (bfs@wiki=3,pagerank@wiki=1,cc@road=1,sssp@road=1).
	weight int
}

var serveItems = []serveItem{
	{"bfs-wiki", "bfs", "wiki", 3},
	{"pagerank-wiki", "pagerank", "wiki", 1},
	{"cc-road", "cc", "road", 1},
	{"sssp-road", "sssp", "road", 1},
}

// serveGraphs is the daemon's -graphs flag for both serve workloads.
const serveGraphs = "wiki=WikiTalk-like:9,road=RoadNet-like:9"

// serveGraphNames lists the served graphs in mutation-stream order.
var serveGraphNames = []string{"wiki", "road"}

// op is one scheduled operation of an open-loop run: a query or a mutation
// batch, due at a fixed offset from the start of the run.
type op struct {
	due time.Duration
	// item indexes serveItems; -1 marks a mutation.
	item    int
	noCache bool
	// graph and batch describe a mutation.
	graph string
	batch []graph.EdgeMutation
	// after is 1 + the index of the op that must complete before this one
	// is sent (the previous mutation of the same graph), or 0 for none.
	// Mutations of one graph then reach the server in stream order, so the
	// checker's mirror sees the server's epochs.
	after int
}

func (o *op) isMutation() bool { return o.item < 0 }

func (o *op) queryBody() serve.QueryRequest {
	it := serveItems[o.item]
	return serve.QueryRequest{Algo: it.algo, Graph: it.graph, Tenant: "bench", NoCache: o.noCache}
}

func (o *op) mutateBody() serve.MutateRequest {
	specs := make([]serve.MutationSpec, len(o.batch))
	for i, m := range o.batch {
		specs[i] = serve.MutationSpec{Src: m.Src, Dst: m.Dst, Weight: m.Weight, Del: m.Del}
	}
	return serve.MutateRequest{Mutations: specs}
}

// The seed shuffles the query stream in small blocks: each round of the mix
// (6 queries) is a permutation of the mix, and every run of cacheBlock
// queries of one item holds exactly uncachedPerBlock uncached ones. Seeds
// then change the order of queries but neither their mix, nor how much the
// slow ones bunch up, nor which items the cache can serve.
//
// With 5 of 8 (62.5%) uncached, most queries reach a device while cache
// hits still make up over a third of the stream.
const (
	mixRound         = 6
	cacheBlock       = 8
	uncachedPerBlock = 5
)

// querySchedule returns the open-loop query stream: one query every 1/qps
// seconds for dur, drawn from the mix in shuffled blocks.
func querySchedule(seed uint64, qps float64, dur time.Duration) []op {
	rng := xrand.New(seed)
	var round []int
	for i, it := range serveItems {
		for j := 0; j < it.weight; j++ {
			round = append(round, i)
		}
	}
	flags := make([][]bool, len(serveItems)) // each item's remaining cache flags
	n := int(qps * dur.Seconds())
	interval := time.Duration(float64(time.Second) / qps)
	ops := make([]op, n)
	for i := range ops {
		if i%mixRound == 0 {
			rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		}
		it := round[i%mixRound]
		if len(flags[it]) == 0 {
			block := make([]bool, cacheBlock)
			for k := 0; k < uncachedPerBlock; k++ {
				block[k] = true
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			flags[it] = block
		}
		ops[i] = op{due: time.Duration(i) * interval, item: it, noCache: flags[it][0]}
		flags[it] = flags[it][1:]
	}
	return ops
}

// mutationsPerBatch is the number of edges each balanced batch deletes (and
// the next batch re-inserts).
const mutationsPerBatch = 4

// mutationStream generates balanced mutation batches for one graph: batch k
// re-inserts the edges batch k-1 deleted, with their original weights, and
// deletes mutationsPerBatch other edges of the original graph. The live
// graph is therefore always the original minus the last batch's deletions:
// |E| stays fixed, and the diameter barely moves. Random inserts would
// instead shrink the road mesh's diameter and make its queries cheaper.
type mutationStream struct {
	g    *graph.CSR
	w    []int32
	rng  *xrand.Rand
	prev []graph.EdgeMutation // the last batch's deletions, weights kept
}

func newMutationStream(g *graph.CSR, w []int32, seed uint64) *mutationStream {
	return &mutationStream{g: g, w: w, rng: xrand.New(seed)}
}

// next returns the stream's next batch.
func (s *mutationStream) next() []graph.EdgeMutation {
	batch := s.closing()
	taken := make(map[int]bool)
	for _, m := range batch {
		taken[s.position(m.Src, m.Dst)] = true
	}
	for len(s.prev) < mutationsPerBatch && len(taken) < s.g.NumEdges() {
		p := s.rng.Intn(s.g.NumEdges())
		if taken[p] || !s.simple(p) {
			continue
		}
		taken[p] = true
		var w int32 // unweighted graphs take the server's default weight
		if s.w != nil {
			w = s.w[p]
		}
		s.prev = append(s.prev, graph.EdgeMutation{Src: s.source(p), Dst: s.g.Col[p], Weight: w, Del: true})
	}
	return append(batch, s.prev...)
}

// closing returns the batch that re-inserts the last deletions, returning
// the graph to its original edge set.
func (s *mutationStream) closing() []graph.EdgeMutation {
	batch := make([]graph.EdgeMutation, len(s.prev))
	for i, m := range s.prev {
		batch[i] = graph.EdgeMutation{Src: m.Src, Dst: m.Dst, Weight: m.Weight}
	}
	s.prev = nil
	return batch
}

// simple reports whether edge position p is neither a self-loop nor one of
// several parallel copies. Deleting one copy of a parallel edge leaves the
// edge live, and re-inserting it is then a no-op, so such a pair would not
// restore the original graph.
func (s *mutationStream) simple(p int) bool {
	u, v := s.source(p), s.g.Col[p]
	if u == v {
		return false
	}
	n := 0
	for _, x := range s.g.Neighbors(u) {
		if x == v {
			n++
		}
	}
	return n == 1
}

// source returns the source vertex of edge position p.
func (s *mutationStream) source(p int) graph.VertexID {
	rp := s.g.RowPtr
	return graph.VertexID(sort.Search(len(rp)-1, func(v int) bool { return int(rp[v+1]) > p }))
}

// position returns the position of edge (u,v) in the original graph.
func (s *mutationStream) position(u, v graph.VertexID) int {
	for p := s.g.RowPtr[u]; p < s.g.RowPtr[u+1]; p++ {
		if s.g.Col[p] == v {
			return int(p)
		}
	}
	panic(fmt.Sprintf("mwbench: edge (%d,%d) is not in the original graph", u, v))
}

// chainMutations links each mutation to the previous mutation of its graph.
func chainMutations(ops []op) {
	last := make(map[string]int)
	for i := range ops {
		if !ops[i].isMutation() {
			continue
		}
		ops[i].after = last[ops[i].graph]
		last[ops[i].graph] = i + 1
	}
}
