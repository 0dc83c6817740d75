package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
	"maxwarp/internal/vwarp"
)

// KCoreResult is the output of k-core computation.
type KCoreResult struct {
	Result
	// InCore[v] reports whether v survives k-core peeling.
	InCore []bool
	// Remaining is the k-core size.
	Remaining int
}

// KCore computes the k-core of an undirected graph by parallel peeling:
// every round, each live vertex whose live degree has fallen below k removes
// itself and decrements its neighbors' degrees with atomics, until a round
// removes nothing. Upload the symmetrized graph.
func KCore(d *simt.Device, dg *DeviceGraph, k int32, opts Options) (*KCoreResult, error) {
	return complete(newKCoreRun(d, dg, k, opts))
}

// newKCoreRun builds a k-core run whose rounds are peeling rounds; it stops
// when a round removes nothing or after |V|+1 rounds.
func newKCoreRun(d *simt.Device, dg *DeviceGraph, k int32, opts Options) (*Run[*KCoreResult], error) {
	res := &KCoreResult{}
	r, err := newRun[*KCoreResult](d, &res.Result, &opts)
	if err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("gpualgo: negative k %d", k)
	}
	n := dg.NumVertices
	r.graph(dg)
	deg := r.i32("kcore.deg", n)
	alive := r.i32("kcore.alive", n)
	for v := 0; v < n; v++ {
		deg.Data()[v] = dg.RowPtr.Data()[v+1] - dg.RowPtr.Data()[v]
		alive.Data()[v] = 1
	}
	changed := r.i32("kcore.changed", 1)
	lc := r.grid(n)
	r.round = func() (bool, error) {
		changed.Data()[0] = 0
		if err := r.launch(lc, kcorePeelKernel(dg, deg, alive, changed, k, opts), "k-core round %d", res.Iterations); err != nil {
			return false, err
		}
		return changed.Data()[0] == 0 || res.Iterations+1 >= n+1, nil
	}
	r.result = func() *KCoreResult {
		res.InCore = make([]bool, n)
		res.Remaining = 0
		for v := 0; v < n; v++ {
			if alive.Data()[v] == 1 {
				res.InCore[v] = true
				res.Remaining++
			}
		}
		return res
	}
	return r, nil
}

func kcorePeelKernel(dg *DeviceGraph, deg, alive, changed *simt.BufI32, k int32, opts Options) simt.Kernel {
	return func(w *simt.WarpCtx) {
		vwarp.ForEachStatic(w, opts.K, int32(dg.NumVertices), func(ts *vwarp.Tasks) {
			g := ts.Groups
			isAlive := make([]int32, g)
			myDeg := make([]int32, g)
			ts.LoadI32Grouped(alive, ts.Task, isAlive)
			ts.LoadI32Grouped(deg, ts.Task, myDeg)
			ts.Mask(func(gi int) bool { return isAlive[gi] == 1 && myDeg[gi] < k }, func() {
				zeros := make([]int32, g)
				ts.StoreI32Grouped(alive, ts.Task, zeros, nil)
				one := ts.W.ConstI32(1)
				ts.W.StoreI32(changed, ts.W.ConstI32(0), one)
				start := make([]int32, g)
				end := make([]int32, g)
				taskP1 := make([]int32, g)
				ts.LoadI32Grouped(dg.RowPtr, ts.Task, start)
				ts.SISD(1, func(gi int) { taskP1[gi] = ts.Task[gi] + 1 })
				ts.LoadI32Grouped(dg.RowPtr, taskP1, end)
				nbr := ts.W.VecI32()
				minusOne := ts.W.ConstI32(-1)
				ts.SIMDRange(start, end, func(j []int32) {
					ts.W.LoadI32(dg.Col, j, nbr)
					ts.W.AtomicAddI32(deg, nbr, minusOne, nil)
				})
			})
		})
	}
}

// KCoreCPU is the host oracle: sequential peeling with a worklist.
func KCoreCPU(g *graph.CSR, k int32) ([]bool, int) {
	n := g.NumVertices()
	deg := make([]int32, n)
	inCore := make([]bool, n)
	var queue []graph.VertexID
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.VertexID(v))
		inCore[v] = true
		if deg[v] < k {
			queue = append(queue, graph.VertexID(v))
			inCore[v] = false
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.Neighbors(v) {
			if !inCore[u] {
				continue
			}
			deg[u]--
			if deg[u] < k {
				inCore[u] = false
				queue = append(queue, u)
			}
		}
	}
	remaining := 0
	for _, in := range inCore {
		if in {
			remaining++
		}
	}
	return inCore, remaining
}
