package graph

import (
	"fmt"
	"sort"
)

// EdgeMutation is one directed edge change in a batch: an insert (Del false)
// or a delete (Del true). Weight rides along for inserts into weighted
// graphs and is ignored for deletes.
type EdgeMutation struct {
	Src, Dst VertexID
	Weight   int32
	Del      bool
}

// AppliedMutation is one *effective* change Apply made: no-op mutations
// (duplicate inserts, deletes of absent edges, self-loops) are filtered out,
// so incremental algorithms can seed their repair frontiers from exactly the
// edges that changed. For a delete, Weight is the weight the edge had.
type AppliedMutation struct {
	Src, Dst VertexID
	Weight   int32
	Del      bool
}

// ApplyStats summarizes one Apply call.
type ApplyStats struct {
	// Inserted and Deleted count effective changes.
	Inserted, Deleted int
	// DupInserts counts inserts of already-live edges (no-ops).
	DupInserts int
	// AbsentDeletes counts deletes of edges that were not live (no-ops).
	AbsentDeletes int
	// SelfLoops counts dropped self-loop mutations (no-ops: the delta
	// maintains a simple directed graph, matching FromEdgesSimple).
	SelfLoops int
}

// extEdge is one inserted edge in a vertex's extension adjacency list.
type extEdge struct {
	dst VertexID
	w   int32
}

// Delta is a batched-mutation overlay over a frozen CSR: edge deletions are
// marks over the base edge array, edge insertions live in per-vertex
// extension adjacency lists, and Compact folds both back into a fresh
// canonical CSR. Incremental algorithms iterate "live" neighbors on the
// host as (base minus deletion marks) plus extension, and run their device
// kernels on the compacted graph.
//
// The delta maintains a simple directed graph view: inserting an edge that
// is already live is a no-op, deleting an absent edge is a no-op, and
// self-loops are dropped (ApplyStats reports each case). A reverse view
// (in-neighbor iteration) is maintained alongside for pull-style incremental
// algorithms (PageRank, BFS/SSSP orphan detection after deletions).
//
// Delta is not safe for concurrent use; callers serialize Apply/Compact
// against readers (the serve layer snapshots per epoch).
type Delta struct {
	base  *CSR
	baseW []int32 // nil for unweighted graphs

	// del marks deleted base edge positions (indexed like base.Col).
	del []bool
	// delByVertex counts deleted base edges per source vertex, so live
	// out-degrees are O(1).
	delByVertex []int32
	// ext and revExt are the per-vertex insertion adjacency, forward and
	// reverse.
	ext    [][]extEdge
	revExt [][]extEdge
	// extEdges counts live extension edges (both directions agree).
	extEdges int
	// delEdges counts deletion marks set.
	delEdges int

	// revBase is the transpose of base; rev2fwd maps each reverse edge
	// position to its forward position, so deletion marks are shared.
	revBase *CSR
	rev2fwd []int32

	// epoch counts applied batches since NewDelta (Rebase preserves it).
	epoch int64
	// rebases counts Rebase calls (the compaction generation).
	rebases int64
}

// NewDelta wraps base (and optional per-edge weights aligned with base.Col)
// in an empty overlay. The base is validated and must not be mutated by the
// caller afterwards; the weights are copied (re-inserting a deleted base
// edge rewrites its weight slot in place). Construction is O(V+E) (it
// builds the reverse view).
func NewDelta(base *CSR, weights []int32) (*Delta, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if weights != nil && len(weights) != base.NumEdges() {
		return nil, fmt.Errorf("graph: delta weights length %d, want %d edges", len(weights), base.NumEdges())
	}
	n := base.NumVertices()
	d := &Delta{
		base:        base,
		baseW:       append([]int32(nil), weights...),
		del:         make([]bool, base.NumEdges()),
		delByVertex: make([]int32, n),
		ext:         make([][]extEdge, n),
		revExt:      make([][]extEdge, n),
	}
	d.buildReverse()
	return d, nil
}

// buildReverse constructs the transpose of base plus the reverse→forward
// position map that lets both directions share one deletion-mark array.
func (d *Delta) buildReverse() {
	n := d.base.NumVertices()
	rowPtr := make([]int32, n+1)
	for _, w := range d.base.Col {
		rowPtr[w+1]++
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	col := make([]VertexID, len(d.base.Col))
	r2f := make([]int32, len(d.base.Col))
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		for p := d.base.RowPtr[v]; p < d.base.RowPtr[v+1]; p++ {
			w := d.base.Col[p]
			slot := rowPtr[w] + cursor[w]
			col[slot] = VertexID(v)
			r2f[slot] = p
			cursor[w]++
		}
	}
	d.revBase = &CSR{RowPtr: rowPtr, Col: col}
	d.rev2fwd = r2f
}

// NumVertices returns |V| (mutations never change the vertex set).
func (d *Delta) NumVertices() int { return d.base.NumVertices() }

// NumEdges returns the live directed edge count: base edges minus deletion
// marks plus extension edges.
func (d *Delta) NumEdges() int { return d.base.NumEdges() - d.delEdges + d.extEdges }

// Epoch returns the number of batches applied since NewDelta. Rebase keeps
// it, so the epoch identifies the logical graph version, not the physical
// layout.
func (d *Delta) Epoch() int64 { return d.epoch }

// Rebases returns how many times the overlay has been folded into a fresh
// base.
func (d *Delta) Rebases() int64 { return d.rebases }

// PendingOps returns the overlay size: deletion marks plus extension edges.
// Compaction policy keys off this (overlay lookups slow down neighbor
// iteration linearly in the extension length).
func (d *Delta) PendingOps() int { return d.delEdges + d.extEdges }

// Base returns the frozen base CSR. Callers must not mutate it.
func (d *Delta) Base() *CSR { return d.base }

// Weighted reports whether the delta carries edge weights.
func (d *Delta) Weighted() bool { return d.baseW != nil }

// basePos returns the base.Col position of live edge (u,v), or -1.
func (d *Delta) basePos(u, v VertexID) int32 {
	for p := d.base.RowPtr[u]; p < d.base.RowPtr[u+1]; p++ {
		if d.base.Col[p] == v && !d.del[p] {
			return p
		}
	}
	return -1
}

// deletedBasePos returns the base.Col position of a deleted (u,v) mark, or
// -1.
func (d *Delta) deletedBasePos(u, v VertexID) int32 {
	for p := d.base.RowPtr[u]; p < d.base.RowPtr[u+1]; p++ {
		if d.base.Col[p] == v && d.del[p] {
			return p
		}
	}
	return -1
}

// extPos returns the index of v in u's extension list, or -1.
func (d *Delta) extPos(u, v VertexID) int {
	for i, e := range d.ext[u] {
		if e.dst == v {
			return i
		}
	}
	return -1
}

// HasEdge reports whether directed edge (u,v) is live in the overlay view.
func (d *Delta) HasEdge(u, v VertexID) bool {
	return d.basePos(u, v) >= 0 || d.extPos(u, v) >= 0
}

// EdgeWeight returns the live edge's weight (0 and false if absent or the
// delta is unweighted with no such edge; unweighted live edges report 1).
func (d *Delta) EdgeWeight(u, v VertexID) (int32, bool) {
	if p := d.basePos(u, v); p >= 0 {
		if d.baseW != nil {
			return d.baseW[p], true
		}
		return 1, true
	}
	if i := d.extPos(u, v); i >= 0 {
		return d.ext[u][i].w, true
	}
	return 0, false
}

// LiveOutDegree returns v's live out-degree in O(1).
func (d *Delta) LiveOutDegree(v VertexID) int32 {
	return d.base.Degree(v) - d.delByVertex[v] + int32(len(d.ext[v]))
}

// OutNeighborsLive calls f for every live out-neighbor of u (base order
// first, then insertion order); returning false stops early. w is the edge
// weight (1 for unweighted deltas).
func (d *Delta) OutNeighborsLive(u VertexID, f func(v VertexID, w int32) bool) {
	for p := d.base.RowPtr[u]; p < d.base.RowPtr[u+1]; p++ {
		if d.del[p] {
			continue
		}
		wt := int32(1)
		if d.baseW != nil {
			wt = d.baseW[p]
		}
		if !f(d.base.Col[p], wt) {
			return
		}
	}
	for _, e := range d.ext[u] {
		if !f(e.dst, e.w) {
			return
		}
	}
}

// InNeighborsLive calls f for every live in-neighbor of v, via the reverse
// view; returning false stops early.
func (d *Delta) InNeighborsLive(v VertexID, f func(u VertexID, w int32) bool) {
	for p := d.revBase.RowPtr[v]; p < d.revBase.RowPtr[v+1]; p++ {
		fp := d.rev2fwd[p]
		if d.del[fp] {
			continue
		}
		wt := int32(1)
		if d.baseW != nil {
			wt = d.baseW[fp]
		}
		if !f(d.revBase.Col[p], wt) {
			return
		}
	}
	for _, e := range d.revExt[v] {
		if !f(e.dst, e.w) {
			return
		}
	}
}

// Apply applies one mutation batch in order and bumps the epoch. Mutations
// referencing out-of-range vertices fail the whole batch before any change
// is made (the overlay is never left half-applied). Unweighted deltas
// force every insert weight to 1, so weight bookkeeping stays consistent.
// The returned AppliedMutation list holds only the effective changes, in
// application order — the repair seeds for incremental algorithms.
func (d *Delta) Apply(batch []EdgeMutation) ([]AppliedMutation, ApplyStats, error) {
	n := d.NumVertices()
	for i, m := range batch {
		if m.Src < 0 || int(m.Src) >= n || m.Dst < 0 || int(m.Dst) >= n {
			return nil, ApplyStats{}, fmt.Errorf("graph: delta mutation %d: edge (%d,%d) out of range [0,%d)", i, m.Src, m.Dst, n)
		}
	}
	var stats ApplyStats
	var applied []AppliedMutation
	for _, m := range batch {
		if m.Src == m.Dst {
			stats.SelfLoops++
			continue
		}
		if m.Del {
			ok, w := d.deleteEdge(m.Src, m.Dst)
			if !ok {
				stats.AbsentDeletes++
				continue
			}
			stats.Deleted++
			applied = append(applied, AppliedMutation{Src: m.Src, Dst: m.Dst, Weight: w, Del: true})
			continue
		}
		w := m.Weight
		if d.baseW == nil || w == 0 {
			w = 1
		}
		if !d.insertEdge(m.Src, m.Dst, w) {
			stats.DupInserts++
			continue
		}
		stats.Inserted++
		applied = append(applied, AppliedMutation{Src: m.Src, Dst: m.Dst, Weight: w})
	}
	d.epoch++
	return applied, stats, nil
}

// insertEdge makes (u,v) live; false if it already was.
func (d *Delta) insertEdge(u, v VertexID, w int32) bool {
	if d.HasEdge(u, v) {
		return false
	}
	// Undelete rather than extend when the base already holds the edge, so
	// interleaved delete/insert of the same edge keeps the overlay small.
	if p := d.deletedBasePos(u, v); p >= 0 {
		d.del[p] = false
		d.delByVertex[u]--
		d.delEdges--
		if d.baseW != nil {
			d.baseW[p] = w
		}
		return true
	}
	d.ext[u] = append(d.ext[u], extEdge{dst: v, w: w})
	d.revExt[v] = append(d.revExt[v], extEdge{dst: u, w: w})
	d.extEdges++
	return true
}

// deleteEdge removes live edge (u,v); false if it was not live. Returns the
// removed weight.
func (d *Delta) deleteEdge(u, v VertexID) (bool, int32) {
	if p := d.basePos(u, v); p >= 0 {
		d.del[p] = true
		d.delByVertex[u]++
		d.delEdges++
		w := int32(1)
		if d.baseW != nil {
			w = d.baseW[p]
		}
		return true, w
	}
	if i := d.extPos(u, v); i >= 0 {
		w := d.ext[u][i].w
		d.ext[u] = append(d.ext[u][:i], d.ext[u][i+1:]...)
		for j, e := range d.revExt[v] {
			if e.dst == u {
				d.revExt[v] = append(d.revExt[v][:j], d.revExt[v][j+1:]...)
				break
			}
		}
		d.extEdges--
		return true, w
	}
	return false, 0
}

// Compact folds the overlay into a fresh canonical CSR (each adjacency list
// sorted ascending) plus aligned weights (nil for unweighted deltas). The
// result depends only on the live edge set, so any two deltas describing
// the same logical graph compact identically — the anchor for the
// differential and metamorphic test harnesses. The delta itself is
// unchanged; use Rebase to also reset the overlay.
func (d *Delta) Compact() (*CSR, []int32, error) {
	n := d.NumVertices()
	rowPtr := make([]int32, n+1)
	col := make([]VertexID, 0, d.NumEdges())
	var weights []int32
	if d.baseW != nil {
		weights = make([]int32, 0, d.NumEdges())
	}
	type adjEntry struct {
		dst VertexID
		w   int32
	}
	var scratch []adjEntry
	for v := 0; v < n; v++ {
		scratch = scratch[:0]
		d.OutNeighborsLive(VertexID(v), func(u VertexID, w int32) bool {
			scratch = append(scratch, adjEntry{dst: u, w: w})
			return true
		})
		sort.Slice(scratch, func(i, j int) bool { return scratch[i].dst < scratch[j].dst })
		for _, e := range scratch {
			col = append(col, e.dst)
			if weights != nil {
				weights = append(weights, e.w)
			}
		}
		rowPtr[v+1] = int32(len(col))
	}
	g := &CSR{RowPtr: rowPtr, Col: col}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, weights, nil
}

// Rebase compacts the overlay into a fresh base and resets the deletion
// marks and extension lists, preserving the epoch. After Rebase the
// physical layout changes (neighbor order is canonicalized), but the
// logical graph is identical — incremental results must not change, which
// the metamorphic suite pins.
func (d *Delta) Rebase() error {
	g, w, err := d.Compact()
	if err != nil {
		return err
	}
	n := g.NumVertices()
	d.base = g
	d.baseW = w
	d.del = make([]bool, g.NumEdges())
	d.delByVertex = make([]int32, n)
	d.ext = make([][]extEdge, n)
	d.revExt = make([][]extEdge, n)
	d.extEdges = 0
	d.delEdges = 0
	d.buildReverse()
	d.rebases++
	return nil
}

// Validate checks the overlay invariants: mark/extension counters match the
// arrays, extension edges are in range, free of duplicates and self-loops,
// never shadow a live base edge, and the forward and reverse extension
// views agree.
func (d *Delta) Validate() error {
	if err := d.base.Validate(); err != nil {
		return fmt.Errorf("graph: delta base: %w", err)
	}
	if len(d.del) != d.base.NumEdges() {
		return fmt.Errorf("graph: delta del marks %d, want %d", len(d.del), d.base.NumEdges())
	}
	n := d.NumVertices()
	delCount := 0
	for v := 0; v < n; v++ {
		perV := int32(0)
		for p := d.base.RowPtr[v]; p < d.base.RowPtr[v+1]; p++ {
			if d.del[p] {
				perV++
				delCount++
			}
		}
		if perV != d.delByVertex[v] {
			return fmt.Errorf("graph: delta delByVertex[%d] = %d, marks say %d", v, d.delByVertex[v], perV)
		}
	}
	if delCount != d.delEdges {
		return fmt.Errorf("graph: delta delEdges = %d, marks say %d", d.delEdges, delCount)
	}
	extCount := 0
	revCount := 0
	for v := 0; v < n; v++ {
		seen := make(map[VertexID]bool, len(d.ext[v]))
		for _, e := range d.ext[v] {
			extCount++
			if e.dst < 0 || int(e.dst) >= n {
				return fmt.Errorf("graph: delta ext[%d] edge to %d out of range", v, e.dst)
			}
			if e.dst == VertexID(v) {
				return fmt.Errorf("graph: delta ext[%d] holds a self-loop", v)
			}
			if seen[e.dst] {
				return fmt.Errorf("graph: delta ext[%d] holds duplicate edge to %d", v, e.dst)
			}
			seen[e.dst] = true
			if d.basePos(VertexID(v), e.dst) >= 0 {
				return fmt.Errorf("graph: delta ext[%d] shadows live base edge to %d", v, e.dst)
			}
			// Forward/reverse agreement.
			found := false
			for _, r := range d.revExt[e.dst] {
				if r.dst == VertexID(v) && r.w == e.w {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: delta ext edge (%d,%d) missing from reverse view", v, e.dst)
			}
		}
		revCount += len(d.revExt[v])
	}
	if extCount != d.extEdges {
		return fmt.Errorf("graph: delta extEdges = %d, lists say %d", d.extEdges, extCount)
	}
	if revCount != extCount {
		return fmt.Errorf("graph: delta reverse ext holds %d edges, forward %d", revCount, extCount)
	}
	return nil
}
