// Package graph provides the compressed-sparse-row (CSR) graph substrate used
// by every algorithm in this repository.
//
// The CSR layout is the one assumed throughout Hong et al. (PPoPP 2011):
// a row-pointer array R of length |V|+1 and a column-index array C of length
// |E|; the out-neighbors of vertex v are C[R[v]:R[v+1]]. All GPU kernels
// consume exactly these two arrays, so memory-coalescing behaviour in the
// simulator mirrors the paper's.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex; 32-bit, matching the paper's GPU kernels.
type VertexID = int32

// Edge is a directed edge in an edge list.
type Edge struct {
	Src, Dst VertexID
}

// CSR is a directed graph in compressed-sparse-row form.
//
// Invariants (checked by Validate):
//   - len(RowPtr) == NumVertices+1
//   - RowPtr[0] == 0, RowPtr is non-decreasing, RowPtr[NumVertices] == len(Col)
//   - every Col value is in [0, NumVertices)
type CSR struct {
	// RowPtr[v] is the offset into Col where v's adjacency list begins.
	RowPtr []int32
	// Col holds the concatenated adjacency lists.
	Col []VertexID
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges returns |E| (directed edge count).
func (g *CSR) NumEdges() int { return len(g.Col) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int32 { return g.RowPtr[v+1] - g.RowPtr[v] }

// Neighbors returns the adjacency list of v as a sub-slice of Col.
// The caller must not modify it.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Validate checks the CSR invariants, returning a descriptive error on the
// first violation.
func (g *CSR) Validate() error {
	if g == nil {
		return errors.New("graph: nil graph")
	}
	if len(g.RowPtr) == 0 {
		return errors.New("graph: empty RowPtr; need at least [0]")
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr decreases at %d: %d -> %d", v, g.RowPtr[v], g.RowPtr[v+1])
		}
	}
	if int(g.RowPtr[n]) != len(g.Col) {
		return fmt.Errorf("graph: RowPtr[n] = %d, want len(Col) = %d", g.RowPtr[n], len(g.Col))
	}
	for i, c := range g.Col {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("graph: Col[%d] = %d out of range [0,%d)", i, c, n)
		}
	}
	return nil
}

// FromEdges builds a CSR with numVertices vertices from an arbitrary directed
// edge list. Edges are grouped by source using counting sort, so construction
// is O(V+E). Duplicate edges and self-loops are kept as-is (callers that want
// a simple graph should use FromEdgesSimple).
func FromEdges(numVertices int, edges []Edge) (*CSR, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	if numVertices > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32", numVertices)
	}
	rowPtr := make([]int32, numVertices+1)
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= numVertices {
			return nil, fmt.Errorf("graph: edge source %d out of range [0,%d)", e.Src, numVertices)
		}
		if e.Dst < 0 || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge destination %d out of range [0,%d)", e.Dst, numVertices)
		}
		rowPtr[e.Src+1]++
	}
	for v := 0; v < numVertices; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	col := make([]VertexID, len(edges))
	cursor := make([]int32, numVertices)
	for _, e := range edges {
		col[rowPtr[e.Src]+cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	g := &CSR{RowPtr: rowPtr, Col: col}
	if err := g.Validate(); err != nil {
		// Construction guarantees the invariants; this is a cheap O(V+E)
		// belt-and-braces check so a bug here can never hand kernels a
		// malformed graph.
		return nil, err
	}
	return g, nil
}

// FromEdgesSimple is FromEdges followed by per-vertex neighbor sorting,
// duplicate removal, and self-loop removal, yielding a simple directed graph.
func FromEdgesSimple(numVertices int, edges []Edge) (*CSR, error) {
	g, err := FromEdges(numVertices, edges)
	if err != nil {
		return nil, err
	}
	g.SortNeighbors()
	return g.removeDupsAndLoops(), nil
}

// SortNeighbors sorts each adjacency list ascending, in place.
func (g *CSR) SortNeighbors() {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		adj := g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
}

// removeDupsAndLoops rebuilds the graph without duplicate edges or self-loops.
// Requires sorted adjacency lists.
func (g *CSR) removeDupsAndLoops() *CSR {
	n := g.NumVertices()
	rowPtr := make([]int32, n+1)
	col := make([]VertexID, 0, len(g.Col))
	for v := 0; v < n; v++ {
		prev := VertexID(-1)
		for _, w := range g.Neighbors(VertexID(v)) {
			if w == VertexID(v) || w == prev {
				continue
			}
			col = append(col, w)
			prev = w
		}
		rowPtr[v+1] = int32(len(col))
	}
	return &CSR{RowPtr: rowPtr, Col: col}
}

// Reverse returns the transpose graph (every edge reversed).
func (g *CSR) Reverse() *CSR {
	n := g.NumVertices()
	rowPtr := make([]int32, n+1)
	for _, w := range g.Col {
		rowPtr[w+1]++
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	col := make([]VertexID, len(g.Col))
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			col[rowPtr[w]+cursor[w]] = VertexID(v)
			cursor[w]++
		}
	}
	return &CSR{RowPtr: rowPtr, Col: col}
}

// Symmetrize returns the undirected closure: for every edge (u,v) both (u,v)
// and (v,u) are present, with duplicates and self-loops removed. A malformed
// input graph (e.g. out-of-range Col entries) is reported as an error, never
// a panic.
func (g *CSR) Symmetrize() (*CSR, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	edges := make([]Edge, 0, 2*len(g.Col))
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			edges = append(edges, Edge{VertexID(v), w}, Edge{w, VertexID(v)})
		}
	}
	return FromEdgesSimple(n, edges)
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	return &CSR{
		RowPtr: append([]int32(nil), g.RowPtr...),
		Col:    append([]VertexID(nil), g.Col...),
	}
}

// Edges materializes the directed edge list (src-major order).
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, len(g.Col))
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			out = append(out, Edge{VertexID(v), w})
		}
	}
	return out
}

// HasEdge reports whether the edge (u,v) exists. O(deg(u)) unless neighbors
// are sorted, in which case binary search is used when deg(u) is large.
func (g *CSR) HasEdge(u, v VertexID) bool {
	adj := g.Neighbors(u)
	if len(adj) >= 16 && sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		return i < len(adj) && adj[i] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

// MaxDegreeVertex returns the vertex with the largest out-degree (lowest id
// wins ties) and that degree. For an empty graph it returns (0, 0).
func (g *CSR) MaxDegreeVertex() (VertexID, int32) {
	var best VertexID
	var bestDeg int32 = -1
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if d := g.Degree(VertexID(v)); d > bestDeg {
			best, bestDeg = VertexID(v), d
		}
	}
	if bestDeg < 0 {
		return 0, 0
	}
	return best, bestDeg
}
