package gpualgo

import (
	"sort"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
	"maxwarp/internal/xrand"
)

// MIS status codes in the device status array.
const (
	misUndecided = int32(0)
	misIn        = int32(1)
	misOut       = int32(2)
)

// MISResult is the output of maximal-independent-set computation.
type MISResult struct {
	Result
	// InSet[v] reports whether v is in the maximal independent set.
	InSet []bool
	// Size is the set cardinality.
	Size int
}

// MIS computes a maximal independent set of an undirected graph with the
// deterministic-priority variant of Luby's algorithm: every round, each
// undecided vertex whose (hashed) priority exceeds that of all its undecided
// neighbors joins the set and knocks its neighbors out. With fixed
// priorities the fixpoint is unique — identical to sequential greedy MIS in
// priority order, which is the CPU oracle. Upload the symmetrized graph.
func MIS(d *simt.Device, dg *DeviceGraph, seed uint64, opts Options) (*MISResult, error) {
	return complete(newMISRun(d, dg, seed, opts))
}

// newMISRun builds an MIS run whose rounds are Luby rounds; it stops when a
// round decides nothing or after |V|+1 rounds.
func newMISRun(d *simt.Device, dg *DeviceGraph, seed uint64, opts Options) (*Run[*MISResult], error) {
	res := &MISResult{}
	r, err := newRun[*MISResult](d, &res.Result, &opts, dg.NumVertices)
	if err != nil {
		return nil, err
	}
	n := dg.NumVertices
	r.graph(dg)
	prio := r.uploadI32("mis.prio", misPriorities(n, seed))
	status := r.i32("mis.status", n)
	// Every round reads status; 0 = undecided is the starting state, so
	// initialize it explicitly rather than leaning on zeroed allocation.
	status.Fill(0)
	changed := r.i32("mis.changed", 1)
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if err := r.launch(lc, misRoundKernel(dg, prio, status, changed, r.sched), "MIS round %d", res.Iterations); err != nil {
			return false, err
		}
		return changed.Data()[0] == 0 || res.Iterations+1 >= n+1, nil
	}
	r.result = func() *MISResult {
		res.InSet = make([]bool, n)
		res.Size = 0
		for v := 0; v < n; v++ {
			if status.Data()[v] == misIn {
				res.InSet[v] = true
				res.Size++
			}
		}
		return res
	}
	return r, nil
}

// misRoundKernel runs one round: join if locally max-priority among
// undecided neighbors, then mark all neighbors out.
func misRoundKernel(dg *DeviceGraph, prio, status, changed *simt.BufI32, sched vwarp.Schedule) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEach(w, sched, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			st := make([]int32, g)
			ts.LoadI32Grouped(status, ts.Task, st)
			ts.Mask(func(gi int) bool { return st[gi] == misUndecided }, func() {
				myPrio := make([]int32, g)
				ts.LoadI32Grouped(prio, ts.Task, myPrio)
				ts.Row(dg.RowPtr, ts.Task)

				// blocked[lane] = 1 if some undecided neighbor dominates.
				blocked := w.VecI32()
				w.Apply(1, func(lane int) { blocked[lane] = 0 })
				nst := w.VecI32()
				nprio := w.VecI32()
				ts.Edges(dg.Col, func(_, nbr []int32) {
					w.LoadI32(status, nbr, nst)
					w.LoadI32(prio, nbr, nprio)
					w.Apply(2, func(lane int) {
						gi := ts.Group(lane)
						if nst[lane] != misOut {
							if nprio[lane] > myPrio[gi] ||
								(nprio[lane] == myPrio[gi] && nbr[lane] > ts.Task[gi]) {
								blocked[lane] = 1
							}
						}
					})
				})
				anyBlocked := make([]int32, g)
				ts.ReduceAddI32(blocked, anyBlocked)
				ts.Mask(func(gi int) bool { return anyBlocked[gi] == 0 }, func() {
					ins := make([]int32, g)
					for gi := range ins {
						ins[gi] = misIn
					}
					ts.StoreI32Grouped(status, ts.Task, ins, nil)
					one := w.ConstI32(1)
					w.StoreI32(changed, w.ConstI32(0), one)
					outVal := w.ConstI32(misOut)
					ts.Edges(dg.Col, func(_, nbr []int32) { w.StoreI32(status, nbr, outVal) })
				})
			})
		})
	}
}

// misPriorities hashes vertex ids to non-negative int32 priorities.
func misPriorities(n int, seed uint64) []int32 {
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		sm := xrand.NewSplitMix64(seed + uint64(v)*0x9e3779b97f4a7c15)
		out[v] = int32(sm.Uint64() >> 33) // non-negative
	}
	return out
}

// MISCPU is the host oracle: greedy MIS in decreasing (priority, id) order,
// the unique fixpoint of the deterministic Luby rounds.
func MISCPU(g *graph.CSR, seed uint64) ([]bool, int) {
	n := g.NumVertices()
	prio := misPriorities(n, seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if prio[va] != prio[vb] {
			return prio[va] > prio[vb]
		}
		return va > vb
	})
	inSet := make([]bool, n)
	excluded := make([]bool, n)
	size := 0
	for _, v := range order {
		if excluded[v] {
			continue
		}
		inSet[v] = true
		size++
		excluded[v] = true
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			excluded[u] = true
		}
	}
	return inSet, size
}
