package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// SCCResult is the output of strongly-connected-component decomposition.
type SCCResult struct {
	Result
	// Labels maps each vertex to the smallest vertex id in its SCC (the
	// same canonical labeling as cpualgo.SCC).
	Labels []int32
	// Components is the number of SCCs found.
	Components int
	// Trimmed counts vertices resolved by the trim phases (trivial SCCs).
	Trimmed int
}

// SCC decomposes a directed graph into strongly connected components on the
// device with the Forward-Backward-Trim algorithm (the approach this
// research group scaled up in their SC'13 follow-up): iterated *trim* passes
// peel vertices with no in- or out-neighbor inside their region (trivial
// SCCs — the bulk of skewed real-world graphs), then a pivot's forward and
// backward reachable sets are computed with masked BFS kernels; their
// intersection is one SCC and the three remainders recurse as new regions.
// All passes are virtual warp-centric kernels.
//
// Worst-case region count is O(V) (e.g. long DAG chains), each costing a
// full-vertex scan; the algorithm shines on small-world graphs where trim
// plus a few FB rounds resolve everything.
func SCC(d *simt.Device, g *graph.CSR, opts Options) (*SCCResult, error) {
	return complete(newSCCRun(d, g, opts))
}

// newSCCRun builds a Forward-Backward-Trim run whose rounds are regions:
// each pops one region off the worklist, trims it, and splits what survives
// around a pivot into up to three new regions. It fails after 4|V|+16
// regions.
func newSCCRun(d *simt.Device, g *graph.CSR, opts Options) (*Run[*SCCResult], error) {
	res := &SCCResult{}
	r, err := newRun[*SCCResult](d, &res.Result, &opts, g.NumVertices())
	if err != nil {
		return nil, err
	}
	r.result = func() *SCCResult { return res }
	n := g.NumVertices()
	if n == 0 {
		r.done = true
		return r, nil
	}
	dg := r.graph(Upload(d, g))
	dgRev := r.graph(Upload(d, g.Reverse()))
	region := r.i32("scc.region", n) // current partition; -1 = resolved
	// Kernels read region from the first iteration; partition 0 is the
	// initial state, so write it explicitly.
	region.Fill(0)
	scc := r.i32("scc.labels", n)
	scc.Fill(-1)
	fwd := r.i32("scc.fwd", n)
	bwd := r.i32("scc.bwd", n)
	hasOut := r.i32("scc.hasout", n)
	hasIn := r.i32("scc.hasin", n)
	counts := r.i32("scc.counts", 4)
	changed := r.i32("scc.changed", 1)

	lc := r.grid(n)
	worklist := []int32{0}
	nextRegion := int32(1)
	r.round = func() (bool, error) {
		if res.Iterations+1 > 4*n+16 {
			return false, fmt.Errorf("gpualgo: SCC exceeded %d region iterations", res.Iterations+1)
		}
		cur := worklist[len(worklist)-1]

		// Trim loop: peel trivially strongly-connected vertices.
		trimmed := 0
		for {
			if err := r.launch(lc, sccScanKernel(dg, region, hasOut, cur, r.sched), "SCC out-scan"); err != nil {
				return false, err
			}
			if err := r.launch(lc, sccScanKernel(dgRev, region, hasIn, cur, r.sched), "SCC in-scan"); err != nil {
				return false, err
			}
			changed.Data()[0] = 0
			if err := r.launch(lc, sccTrimKernel(n, region, hasOut, hasIn, scc, changed, cur), "SCC trim"); err != nil {
				return false, err
			}
			trimmed += int(changed.Data()[0])
			if changed.Data()[0] == 0 {
				break
			}
		}
		// Pivot: first surviving vertex of the region (host scan — the
		// stand-in for a tiny argmax kernel).
		pivot := int32(-1)
		for v := 0; v < n; v++ {
			if region.Data()[v] == cur {
				pivot = int32(v)
				break
			}
		}
		if pivot < 0 {
			worklist = worklist[:len(worklist)-1]
			res.Trimmed += trimmed
			return len(worklist) == 0, nil
		}
		// Reset masks for this region, seed the pivot, and compute the
		// forward/backward closures with masked BFS.
		if err := r.launch(lc, sccResetKernel(n, region, fwd, bwd, cur), "SCC reset"); err != nil {
			return false, err
		}
		fwd.Data()[pivot] = 1
		bwd.Data()[pivot] = 1
		for _, dir := range []struct {
			g    *DeviceGraph
			mask *simt.BufI32
			what string
		}{{dg, fwd, "forward"}, {dgRev, bwd, "backward"}} {
			for {
				changed.Data()[0] = 0
				if err := r.launch(lc, sccClosureKernel(dir.g, region, dir.mask, changed, cur, r.sched), "SCC %s", dir.what); err != nil {
					return false, err
				}
				if changed.Data()[0] == 0 {
					break
				}
			}
		}
		// Split: SCC = fwd ∩ bwd; the three remainders become new regions.
		idFwd, idBwd, idRest := nextRegion, nextRegion+1, nextRegion+2
		for i := range counts.Data() {
			counts.Data()[i] = 0
		}
		if err := r.launch(lc, sccAssignKernel(n, region, fwd, bwd, scc, counts, cur, pivot, idFwd, idBwd, idRest), "SCC assign"); err != nil {
			return false, err
		}
		worklist = worklist[:len(worklist)-1]
		res.Trimmed += trimmed
		nextRegion += 3
		if counts.Data()[1] > 0 {
			worklist = append(worklist, idFwd)
		}
		if counts.Data()[2] > 0 {
			worklist = append(worklist, idBwd)
		}
		if counts.Data()[3] > 0 {
			worklist = append(worklist, idRest)
		}
		return len(worklist) == 0, nil
	}
	r.result = func() *SCCResult {
		// Canonicalize labels to the minimum vertex id per component,
		// matching the CPU oracle's labeling.
		raw := scc.Data()
		minOf := map[int32]int32{}
		for v := 0; v < n; v++ {
			l := raw[v]
			if cur, ok := minOf[l]; !ok || int32(v) < cur {
				minOf[l] = int32(v)
			}
		}
		res.Labels = make([]int32, n)
		for v := 0; v < n; v++ {
			res.Labels[v] = minOf[raw[v]]
		}
		res.Components = len(minOf)
		return res
	}
	return r, nil
}

// sccScanKernel sets flag[v] = 1 iff v (in region r) has a neighbor still in
// region r along the given graph direction.
func sccScanKernel(dg *DeviceGraph, region, flag *simt.BufI32, r int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			reg := make([]int32, g)
			ts.LoadI32Grouped(region, ts.Task, reg)
			ts.Mask(func(gi int) bool { return reg[gi] == r }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				found := w.VecI32()
				w.Apply(1, func(lane int) { found[lane] = 0 })
				nreg := w.VecI32()
				ts.Edges(dg.Col, func(_, nbr []int32) {
					w.LoadI32(region, nbr, nreg)
					w.Apply(1, func(lane int) {
						if nreg[lane] == r {
							found[lane] = 1
						}
					})
				})
				any := make([]int32, g)
				ts.ReduceAddI32(found, any)
				val := make([]int32, g)
				ts.SISD(1, func(gi int) {
					if any[gi] > 0 {
						val[gi] = 1
					}
				})
				ts.StoreI32Grouped(flag, ts.Task, val, nil)
			})
		})
	}
}

// sccTrimKernel resolves region-r vertices with no in- or out-neighbor in
// the region as singleton SCCs, counting removals in changed[0].
func sccTrimKernel(n int, region, hasOut, hasIn, scc, changed *simt.BufI32, r int32) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			reg := w.VecI32()
			w.LoadI32(region, idx, reg)
			w.If(func(lane int) bool { return reg[lane] == r }, func() {
				ho := w.VecI32()
				hi := w.VecI32()
				w.LoadI32(hasOut, idx, ho)
				w.LoadI32(hasIn, idx, hi)
				w.If(func(lane int) bool { return ho[lane] == 0 || hi[lane] == 0 }, func() {
					w.StoreI32(scc, idx, idx)
					minusOne := w.ConstI32(-1)
					w.StoreI32(region, idx, minusOne)
					one := w.ConstI32(1)
					w.AtomicAddI32(changed, w.ConstI32(0), one, nil)
				}, nil)
			}, nil)
			w.AddConstI32(idx, stride)
		})
	}
}

// sccResetKernel zeroes the closure masks for region r.
func sccResetKernel(n int, region, fwd, bwd *simt.BufI32, r int32) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		zero := w.ConstI32(0)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			reg := w.VecI32()
			w.LoadI32(region, idx, reg)
			w.If(func(lane int) bool { return reg[lane] == r }, func() {
				w.StoreI32(fwd, idx, zero)
				w.StoreI32(bwd, idx, zero)
			}, nil)
			w.AddConstI32(idx, stride)
		})
	}
}

// sccClosureKernel expands the mask one step: frontier vertices (mask == 1)
// mark their unvisited region-r neighbors and settle to mask == 2.
func sccClosureKernel(dg *DeviceGraph, region, mask, changed *simt.BufI32, r int32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			reg := make([]int32, g)
			mk := make([]int32, g)
			ts.LoadI32Grouped(region, ts.Task, reg)
			ts.LoadI32Grouped(mask, ts.Task, mk)
			ts.Mask(func(gi int) bool { return reg[gi] == r && mk[gi] == 1 }, func() {
				ts.Row(dg.RowPtr, ts.Task)
				nreg := w.VecI32()
				nmk := w.VecI32()
				one := w.ConstI32(1)
				zero := w.ConstI32(0)
				ts.Edges(dg.Col, func(_, nbr []int32) {
					w.LoadI32(region, nbr, nreg)
					w.LoadI32(mask, nbr, nmk)
					w.If(func(lane int) bool {
						return nreg[lane] == r && nmk[lane] == 0
					}, func() {
						w.StoreI32(mask, nbr, one)
						w.StoreI32(changed, zero, one)
					}, nil)
				})
				two := make([]int32, g)
				for gi := range two {
					two[gi] = 2
				}
				ts.StoreI32Grouped(mask, ts.Task, two, nil)
			})
		})
	}
}

// sccAssignKernel labels the fwd∩bwd intersection with the pivot and deals
// the three remainders into fresh regions, counting each class.
func sccAssignKernel(n int, region, fwd, bwd, scc, counts *simt.BufI32, r, pivot, idFwd, idBwd, idRest int32) simt.Kernel {
	return func(w *simt.WarpCtx) {
		tid := w.GlobalThreadIDs()
		stride := int32(w.GridThreads())
		idx := w.CopyI32(tid)
		one := w.ConstI32(1)
		w.While(func(lane int) bool { return idx[lane] < int32(n) }, func() {
			reg := w.VecI32()
			w.LoadI32(region, idx, reg)
			w.If(func(lane int) bool { return reg[lane] == r }, func() {
				f := w.VecI32()
				b := w.VecI32()
				w.LoadI32(fwd, idx, f)
				w.LoadI32(bwd, idx, b)
				class := w.VecI32()
				newReg := w.VecI32()
				w.Apply(2, func(lane int) {
					inF, inB := f[lane] > 0, b[lane] > 0
					switch {
					case inF && inB:
						class[lane] = 0
						newReg[lane] = -1
					case inF:
						class[lane] = 1
						newReg[lane] = idFwd
					case inB:
						class[lane] = 2
						newReg[lane] = idBwd
					default:
						class[lane] = 3
						newReg[lane] = idRest
					}
				})
				w.If(func(lane int) bool { return class[lane] == 0 }, func() {
					pv := w.ConstI32(pivot)
					w.StoreI32(scc, idx, pv)
				}, nil)
				w.StoreI32(region, idx, newReg)
				w.AtomicAddI32(counts, class, one, nil)
			}, nil)
			w.AddConstI32(idx, stride)
		})
	}
}
