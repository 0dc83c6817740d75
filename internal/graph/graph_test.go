package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"maxwarp/internal/xrand"
)

func mustFromEdges(t *testing.T, n int, edges []Edge) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {0, 3}})
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(0); d != 3 {
		t.Fatalf("Degree(0) = %d, want 3", d)
	}
	if d := g.Degree(2); d != 0 {
		t.Fatalf("Degree(2) = %d, want 0", d)
	}
	g.SortNeighbors()
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

func TestFromEdgesPreservesOrderWithinSource(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{1, 2}, {1, 0}, {1, 2}})
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []VertexID{2, 0, 2}) {
		t.Fatalf("Neighbors(1) = %v, want insertion order [2 0 2]", got)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("destination out of range accepted")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustFromEdges(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph reports V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	v, d := g.MaxDegreeVertex()
	if v != 0 || d != 0 {
		t.Fatalf("MaxDegreeVertex on empty graph: %d, %d", v, d)
	}
}

func TestFromEdgesSimple(t *testing.T) {
	g, err := FromEdgesSimple(3, []Edge{{0, 1}, {0, 1}, {0, 0}, {1, 2}, {1, 2}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestReverse(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 2}})
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r.SortNeighbors()
	if got := r.Neighbors(2); !reflect.DeepEqual(got, []VertexID{0, 1, 3}) {
		t.Fatalf("reverse Neighbors(2) = %v", got)
	}
	if got := r.Neighbors(0); len(got) != 0 {
		t.Fatalf("reverse Neighbors(0) = %v, want empty", got)
	}
	// Reversing twice restores the edge multiset.
	rr := r.Reverse()
	rr.SortNeighbors()
	gs := g.Clone()
	gs.SortNeighbors()
	if !reflect.DeepEqual(rr.Edges(), gs.Edges()) {
		t.Fatal("double reverse changed the edge multiset")
	}
}

func TestSymmetrize(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 2}})
	s, err := g.Symmetrize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range s.Edges() {
		if !s.HasEdge(e.Dst, e.Src) {
			t.Fatalf("missing mirror of %v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop survived symmetrize: %v", e)
		}
	}
	if s.HasEdge(0, 2) {
		t.Fatal("phantom edge 0->2")
	}
}

func TestHasEdgeLongSortedList(t *testing.T) {
	// Degree >= 16 with sorted neighbors exercises the binary-search path.
	edges := make([]Edge, 0, 40)
	for i := int32(1); i <= 40; i++ {
		edges = append(edges, Edge{0, i})
	}
	g := mustFromEdges(t, 41, edges)
	g.SortNeighbors()
	if !g.HasEdge(0, 7) || !g.HasEdge(0, 40) || !g.HasEdge(0, 1) {
		t.Fatal("HasEdge missed an existing edge")
	}
	if g.HasEdge(0, 0) {
		t.Fatal("HasEdge invented an edge")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}})
	cases := map[string]func(*CSR){
		"rowptr head":      func(g *CSR) { g.RowPtr[0] = 1 },
		"rowptr decrease":  func(g *CSR) { g.RowPtr[1] = 5 },
		"rowptr tail":      func(g *CSR) { g.RowPtr[len(g.RowPtr)-1] = 1 },
		"col out of range": func(g *CSR) { g.Col[0] = 99 },
		"col negative":     func(g *CSR) { g.Col[0] = -1 },
	}
	for name, corrupt := range cases {
		g := good.Clone()
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	empty := &CSR{}
	if err := empty.Validate(); err == nil {
		t.Error("zero-value CSR validated")
	}
	var none *CSR
	if err := none.Validate(); err == nil {
		t.Error("nil CSR validated")
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{2, 0}, {2, 1}, {2, 3}, {0, 1}})
	v, d := g.MaxDegreeVertex()
	if v != 2 || d != 3 {
		t.Fatalf("MaxDegreeVertex = (%d,%d), want (2,3)", v, d)
	}
}

// propEdges converts quick-generated raw pairs into a valid edge list.
func propEdges(n int, raw []uint32) []Edge {
	if n <= 0 {
		return nil
	}
	edges := make([]Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, Edge{
			Src: VertexID(raw[i] % uint32(n)),
			Dst: VertexID(raw[i+1] % uint32(n)),
		})
	}
	return edges
}

func TestPropertyCSRInvariants(t *testing.T) {
	f := func(nRaw uint8, raw []uint32) bool {
		n := int(nRaw)%100 + 1
		edges := propEdges(n, raw)
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		if g.Validate() != nil || g.NumEdges() != len(edges) {
			return false
		}
		// Sum of degrees equals |E|.
		var sum int32
		for v := 0; v < n; v++ {
			sum += g.Degree(VertexID(v))
		}
		return int(sum) == len(edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReversePreservesEdgeCountAndMirrors(t *testing.T) {
	f := func(nRaw uint8, raw []uint32) bool {
		n := int(nRaw)%50 + 1
		g, err := FromEdges(n, propEdges(n, raw))
		if err != nil {
			return false
		}
		r := g.Reverse()
		if r.Validate() != nil || r.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !r.HasEdge(e.Dst, e.Src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySimpleGraphHasNoDupsOrLoops(t *testing.T) {
	f := func(nRaw uint8, raw []uint32) bool {
		n := int(nRaw)%50 + 1
		g, err := FromEdgesSimple(n, propEdges(n, raw))
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			adj := g.Neighbors(VertexID(v))
			for i, w := range adj {
				if w == VertexID(v) {
					return false
				}
				if i > 0 && adj[i-1] >= w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedFrom(t *testing.T) {
	// 0 -> 1 -> 2, isolated 3.
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}})
	if c := ConnectedFrom(g, 0); c != 3 {
		t.Fatalf("ConnectedFrom(0) = %d, want 3", c)
	}
	if c := ConnectedFrom(g, 2); c != 1 {
		t.Fatalf("ConnectedFrom(2) = %d, want 1", c)
	}
	if c := ConnectedFrom(g, 3); c != 1 {
		t.Fatalf("ConnectedFrom(3) = %d, want 1", c)
	}
}

func TestLargestOutComponentSeed(t *testing.T) {
	// Chain 0..9 plus isolated 10..19; any chain-prefix vertex beats isolates.
	edges := make([]Edge, 0, 9)
	for i := int32(0); i < 9; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	g := mustFromEdges(t, 20, edges)
	seed := LargestOutComponentSeed(g)
	if c := ConnectedFrom(g, seed); c < 5 {
		t.Fatalf("seed %d reaches only %d vertices", seed, c)
	}
}

func randomGraph(seed uint64, n, e int) *CSR {
	r := xrand.New(seed)
	edges := make([]Edge, e)
	for i := range edges {
		edges[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestCloneIsDeep(t *testing.T) {
	g := randomGraph(1, 50, 200)
	c := g.Clone()
	c.Col[0] = (c.Col[0] + 1) % 50
	c.RowPtr[1]++
	if g.Col[0] == c.Col[0] && g.RowPtr[1] == c.RowPtr[1] {
		t.Fatal("Clone shares storage with original")
	}
}
