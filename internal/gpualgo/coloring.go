package gpualgo

import (
	"fmt"
	"math/bits"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// ColoringResult is the output of greedy graph coloring.
type ColoringResult struct {
	Result
	// Colors assigns each vertex a color in [0, NumColors).
	Colors []int32
	// NumColors is the palette size used.
	NumColors int32
}

// GraphColoring computes a proper vertex coloring of an undirected graph
// with Jones–Plassmann rounds: every round, each uncolored vertex whose
// hashed priority beats all its uncolored neighbors colors itself with the
// smallest color absent from its (already colored) neighborhood. The mex
// search scans the neighborhood in 32-color windows with a warp-vote OR
// reduction — a pure SIMD-phase pattern.
//
// The coloring is proper and deterministic for a given seed; the exact
// colors depend on the engine's in-round progress order, so tests validate
// properness and palette bounds rather than comparing colors to a CPU run.
func GraphColoring(d *simt.Device, dg *DeviceGraph, seed uint64, opts Options) (*ColoringResult, error) {
	return complete(newColoringRun(d, dg, seed, opts))
}

// newColoringRun builds a coloring run whose rounds are Jones–Plassmann
// rounds; it stops when a round colors nothing or after |V|+1 rounds, and
// fails if a vertex is still uncolored then.
func newColoringRun(d *simt.Device, dg *DeviceGraph, seed uint64, opts Options) (*Run[*ColoringResult], error) {
	res := &ColoringResult{}
	r, err := newRun[*ColoringResult](d, &res.Result, &opts)
	if err != nil {
		return nil, err
	}
	n := dg.NumVertices
	r.graph(dg)
	prio := r.uploadI32("color.prio", misPriorities(n, seed))
	colors := r.i32("color.colors", n)
	colors.Fill(-1)
	changed := r.i32("color.changed", 1)
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if err := r.launch(lc, coloringRoundKernel(dg, prio, colors, changed, opts), "coloring round %d", res.Iterations); err != nil {
			return false, err
		}
		done := changed.Data()[0] == 0 || res.Iterations+1 >= n+1
		if done {
			for _, c := range colors.Data() {
				if c < 0 {
					return false, fmt.Errorf("gpualgo: coloring left a vertex uncolored")
				}
			}
		}
		return done, nil
	}
	r.result = func() *ColoringResult {
		res.Colors = append([]int32(nil), colors.Data()...)
		res.NumColors = 0
		for _, c := range res.Colors {
			if c+1 > res.NumColors {
				res.NumColors = c + 1
			}
		}
		return res
	}
	return r, nil
}

func coloringRoundKernel(dg *DeviceGraph, prio, colors, changed *simt.BufI32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			myColor := make([]int32, g)
			ts.LoadI32Grouped(colors, ts.Task, myColor)
			ts.Mask(func(gi int) bool { return myColor[gi] < 0 }, func() {
				myPrio := make([]int32, g)
				ts.LoadI32Grouped(prio, ts.Task, myPrio)
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)

				// Phase 1: eligibility — no uncolored neighbor dominates.
				blocked := w.VecI32()
				w.Apply(1, func(lane int) { blocked[lane] = 0 })
				nbr := w.VecI32()
				ncol := w.VecI32()
				nprio := w.VecI32()
				ts.SIMDRange(start, end, func(j []int32) {
					w.LoadI32(dg.Col, j, nbr)
					w.LoadI32(colors, nbr, ncol)
					w.LoadI32(prio, nbr, nprio)
					w.Apply(2, func(lane int) {
						gi := ts.Group(lane)
						if ncol[lane] < 0 {
							if nprio[lane] > myPrio[gi] ||
								(nprio[lane] == myPrio[gi] && nbr[lane] > ts.Task[gi]) {
								blocked[lane] = 1
							}
						}
					})
				})
				anyBlocked := make([]int32, g)
				ts.ReduceAddI32(blocked, anyBlocked)

				// Phase 2: eligible groups search the smallest free color in
				// 32-color windows.
				ts.Mask(func(gi int) bool { return anyBlocked[gi] == 0 }, func() {
					chosen := make([]int32, g)
					// Only groups actually active in this masked scope
					// search; everything else counts as done, or the window
					// loop below would spin forever on their behalf.
					done := make([]bool, g)
					for gi := range done {
						done[gi] = true
					}
					ts.SISD(1, func(gi int) { done[gi] = false })
					window := make([]int32, g) // per-group window base
					used := w.VecI32()
					usedAll := w.VecI32()
					for {
						// Uniform loop: all groups still searching scan once
						// per window round; finished groups are masked.
						anySearching := false
						for gi := 0; gi < g; gi++ {
							if ts.Valid(gi) && !done[gi] {
								anySearching = true
							}
						}
						if !anySearching {
							break
						}
						ts.Mask(func(gi int) bool { return !done[gi] }, func() {
							w.Apply(1, func(lane int) { used[lane] = 0 })
							ts.SIMDRange(start, end, func(j []int32) {
								w.LoadI32(dg.Col, j, nbr)
								w.LoadI32(colors, nbr, ncol)
								w.Apply(2, func(lane int) {
									gi := ts.Group(lane)
									rel := ncol[lane] - window[gi]
									if ncol[lane] >= 0 && rel >= 0 && rel < 31 {
										used[lane] |= 1 << uint(rel)
									}
								})
							})
							w.GroupReduceOrI32(ts.K, used, usedAll)
							ts.SISD(2, func(gi int) {
								free := ^usedAll[gi*ts.K] & 0x7fffffff
								if free != 0 {
									chosen[gi] = window[gi] + int32(bits.TrailingZeros32(uint32(free)))
									done[gi] = true
								} else {
									window[gi] += 31
								}
							})
						})
					}
					ts.StoreI32Grouped(colors, ts.Task, chosen, nil)
					one := w.ConstI32(1)
					w.StoreI32(changed, w.ConstI32(0), one)
				})
			})
		})
	}
}

// ValidColoring checks colors is a proper coloring of g using at most
// maxDegree+1 colors beyond what the structure forces. Returns an error
// describing the first violation.
func ValidColoring(g *graph.CSR, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("gpualgo: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("gpualgo: vertex %d uncolored", v)
		}
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if u != graph.VertexID(v) && colors[u] == colors[v] {
				return fmt.Errorf("gpualgo: adjacent vertices %d and %d share color %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// GreedyColoringCPU is the sequential reference: greedy mex in vertex
// order. Its palette size is the usual comparison point for parallel
// colorings.
func GreedyColoringCPU(g *graph.CSR) ([]int32, int32) {
	n := g.NumVertices()
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	var palette int32
	used := map[int32]bool{}
	for v := 0; v < n; v++ {
		for k := range used {
			delete(used, k)
		}
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
		if c+1 > palette {
			palette = c + 1
		}
	}
	return colors, palette
}
