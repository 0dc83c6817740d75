package kernelcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

func parseForTest(src string) (*token.FileSet, *ast.File, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", []byte(src), parser.ParseComments)
	return fset, file, err
}

// checkWarp runs the advisory warp analyzer set (plus barrier, which is
// CFG-based too) over one fixture file.
func checkWarp(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckSourceWith("fixture.go", []byte(src), append([]*Analyzer{BarrierAnalyzer}, WarpAll...))
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return diags
}

func countRule(diags []Diagnostic, rule string) int {
	n := 0
	for _, d := range diags {
		if d.Rule == rule {
			n++
		}
	}
	return n
}

// --- divergence -------------------------------------------------------------

func TestDivergenceDataPredicate(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, dist *BufI32) {
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	w.If(func(lane int) bool { return mine[lane] > 0 }, func() {
		w.StoreI32(dist, w.LaneIDs(), mine)
	}, nil)
}
`)
	if countRule(diags, "divergence") != 1 {
		t.Errorf("want 1 divergence finding, got %v", diags)
	}
}

func TestDivergenceLaneIDNotFlagged(t *testing.T) {
	// The leader idiom: lane-id-only predicates are bounded structural
	// divergence, not the paper's data-divergence pathology.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, out *BufI32) {
	w.If(func(lane int) bool { return lane == 0 }, func() {
		w.StoreI32(out, w.ConstI32(0), w.ConstI32(1))
	}, nil)
}
`)
	if countRule(diags, "divergence") != 0 {
		t.Errorf("lane-id predicate must not be flagged, got %v", diags)
	}
}

func TestDivergenceUniformPredicateNotFlagged(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, out *BufI32, enabled bool) {
	w.If(func(lane int) bool { return enabled }, func() {
		w.StoreI32(out, w.LaneIDs(), w.ConstI32(1))
	}, nil)
}
`)
	if countRule(diags, "divergence") != 0 {
		t.Errorf("uniform predicate must not be flagged, got %v", diags)
	}
}

func TestDivergenceWhileOnLoadedData(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, deg *BufI32) {
	d := w.VecI32()
	w.LoadI32(deg, w.LaneIDs(), d)
	w.While(func(lane int) bool { return d[lane] > 0 }, func() {
		w.Apply(1, func(lane int) { d[lane]-- })
	})
}
`)
	if countRule(diags, "divergence") != 1 {
		t.Errorf("want 1 divergence finding for data-bounded While, got %v", diags)
	}
}

func TestDivergenceSIMDRangeDegreeBounds(t *testing.T) {
	// The canonical neighbor-expansion shape: SIMDRange over per-task row
	// bounds loaded from the CSR — the paper's workload-imbalance case.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, rowPtr *BufI32) func(ts *Tasks) {
	return func(ts *Tasks) {
		start := make([]int32, 4)
		end := make([]int32, 4)
		ts.LoadI32Grouped(rowPtr, ts.Task, start)
		ts.LoadI32Grouped(rowPtr, ts.Task, end)
		ts.SIMDRange(start, end, func(j []int32) {
			_ = j
		})
	}
}
`)
	if countRule(diags, "divergence") != 1 {
		t.Errorf("want 1 divergence finding for degree-bounded SIMDRange, got %v", diags)
	}
}

func TestDivergenceIgnoreDirective(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, dist *BufI32) {
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	//kernelcheck:ignore divergence
	w.If(func(lane int) bool { return mine[lane] > 0 }, func() {
		w.StoreI32(dist, w.LaneIDs(), mine)
	}, nil)
}
`)
	if countRule(diags, "divergence") != 0 {
		t.Errorf("ignore directive must suppress the divergence finding, got %v", diags)
	}
}

// --- coalesce ---------------------------------------------------------------

func TestCoalesceIrregularGatherInLoop(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, adj, dist *BufI32) {
	nbr := w.VecI32()
	d := w.VecI32()
	w.LoadI32(adj, w.LaneIDs(), nbr)
	w.While(func(lane int) bool { return nbr[lane] >= 0 }, func() {
		w.LoadI32(adj, nbr, nbr)
		w.LoadI32(dist, nbr, d)
	})
}
`)
	if countRule(diags, "coalesce") == 0 {
		t.Errorf("want coalesce findings for irregular gathers in a loop, got %v", diags)
	}
}

func TestCoalesceUnitStrideClean(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, in, out *BufI32) {
	v := w.VecI32()
	for i := 0; i < 4; i++ {
		w.LoadI32(in, w.GlobalThreadIDs(), v)
		w.StoreI32(out, w.GlobalThreadIDs(), v)
	}
}
`)
	if countRule(diags, "coalesce") != 0 {
		t.Errorf("unit-stride access must not be flagged, got %v", diags)
	}
}

func TestCoalesceIrregularOutsideLoopClean(t *testing.T) {
	// A one-shot gather is not a hot path; only looping irregular access
	// is flagged.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, tbl, out *BufI32) {
	idx := w.VecI32()
	w.LoadI32(tbl, w.LaneIDs(), idx)
	w.LoadI32(tbl, idx, idx)
}
`)
	if countRule(diags, "coalesce") != 0 {
		t.Errorf("one-shot gather must not be flagged, got %v", diags)
	}
}

func TestCoalesceIgnoreDirective(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, adj *BufI32) {
	nbr := w.VecI32()
	w.While(func(lane int) bool { return nbr[lane] >= 0 }, func() {
		w.LoadI32(adj, nbr, nbr) //kernelcheck:ignore coalesce
	})
}
`)
	if countRule(diags, "coalesce") != 0 {
		t.Errorf("ignore directive must suppress the coalesce finding, got %v", diags)
	}
}

// --- atomicserial -----------------------------------------------------------

func TestAtomicSerialUniformTarget(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, count *BufI32) {
	old := w.VecI32()
	w.AtomicAddI32(count, w.ConstI32(0), w.ConstI32(1), old)
}
`)
	if countRule(diags, "atomicserial") != 1 {
		t.Errorf("want 1 atomicserial finding for uniform unguarded atomic, got %v", diags)
	}
}

func TestAtomicSerialLeaderGuardClean(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, count *BufI32) {
	old := w.VecI32()
	w.If(func(lane int) bool { return lane == 0 }, func() {
		w.AtomicAddI32(count, w.ConstI32(0), w.ConstI32(1), old)
	}, nil)
}
`)
	if countRule(diags, "atomicserial") != 0 {
		t.Errorf("leader-guarded atomic must not be flagged, got %v", diags)
	}
}

func TestAtomicSerialDataTargetInLoop(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, labels *BufI32) {
	nbr := w.VecI32()
	mine := w.VecI32()
	old := w.VecI32()
	w.While(func(lane int) bool { return nbr[lane] >= 0 }, func() {
		w.LoadI32(labels, nbr, nbr)
		w.AtomicMinI32(labels, nbr, mine, old)
	})
}
`)
	if countRule(diags, "atomicserial") != 1 {
		t.Errorf("want 1 atomicserial finding for colliding data-dependent atomic, got %v", diags)
	}
}

func TestAtomicSerialIgnoreDirective(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, count *BufI32) {
	old := w.VecI32()
	//kernelcheck:ignore atomicserial
	w.AtomicAddI32(count, w.ConstI32(0), w.ConstI32(1), old)
}
`)
	if countRule(diags, "atomicserial") != 0 {
		t.Errorf("ignore directive must suppress the atomicserial finding, got %v", diags)
	}
}

// --- barrier: the CFG rewrite's negative and positive fixtures --------------

func TestBarrierInHelperClosureFlagged(t *testing.T) {
	// The lexical PR 4 rule missed this: the barrier lives in a bound
	// helper closure, called from inside a divergent branch. The CFG
	// resolves the binding and inlines the call.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, dist *BufI32) {
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	sync := func() {
		w.SyncThreads()
	}
	w.If(func(lane int) bool { return mine[lane] > 0 }, func() {
		sync()
	}, nil)
}
`)
	if countRule(diags, "barrier") != 1 {
		t.Errorf("want 1 barrier finding through the helper closure, got %v", diags)
	}
}

func TestBarrierInUniformBranchClean(t *testing.T) {
	// The lexical rule's false positive: a barrier inside a warp If whose
	// predicate is warp-uniform — every lane takes the same side, so the
	// barrier executes under a full (or empty) mask.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, out *BufI32, phase2 bool) {
	w.If(func(lane int) bool { return phase2 }, func() {
		w.SyncThreads()
		w.StoreI32(out, w.LaneIDs(), w.ConstI32(1))
	}, nil)
}
`)
	if countRule(diags, "barrier") != 0 {
		t.Errorf("uniform-predicate branch barrier must not be flagged, got %v", diags)
	}
}

func TestBarrierInUniformGoIfClean(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, out *BufI32, rounds int) {
	if rounds > 1 {
		w.SyncThreads()
	}
}
`)
	if countRule(diags, "barrier") != 0 {
		t.Errorf("uniform Go-if barrier must not be flagged, got %v", diags)
	}
}

func TestBarrierUnderDataGoIfFlagged(t *testing.T) {
	// A Go-level branch on loaded data: different warps take different
	// sides and disagree on barrier counts.
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, flags *BufI32) {
	f := w.VecI32()
	w.LoadI32(flags, w.LaneIDs(), f)
	if f[0] > 0 {
		w.SyncThreads()
	}
}
`)
	if countRule(diags, "barrier") != 1 {
		t.Errorf("want 1 barrier finding under data-dependent Go if, got %v", diags)
	}
}

func TestBarrierIgnoreDirective(t *testing.T) {
	diags := checkWarp(t, `package k

func kern(w *WarpCtx, dist *BufI32) {
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	w.If(func(lane int) bool { return mine[lane] > 0 }, func() {
		w.SyncThreads() //kernelcheck:ignore barrier
	}, nil)
}
`)
	if countRule(diags, "barrier") != 0 {
		t.Errorf("ignore directive must suppress the barrier finding, got %v", diags)
	}
}

// --- closure-binding resolution (the set-then-call idiom) -------------------

func TestSetThenCallBindingResolved(t *testing.T) {
	// The gpualgo scratch idiom: closures bound to struct fields in a
	// factory, invoked by field through a construct in the kernel proper.
	diags := checkWarp(t, `package k

type scratch struct {
	pred func(lane int) bool
	body func()
}

func scratchFor(w *WarpCtx, dist *BufI32) *scratch {
	s := &scratch{}
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	s.pred = func(lane int) bool { return mine[lane] > 0 }
	s.body = func() {
		w.StoreI32(dist, w.LaneIDs(), mine)
	}
	return s
}

func kern(dist *BufI32) func(w *WarpCtx) {
	return func(w *WarpCtx) {
		s := scratchFor(w, dist)
		w.If(s.pred, s.body, nil)
	}
}
`)
	if countRule(diags, "divergence") != 1 {
		t.Errorf("want 1 divergence finding through the bound predicate, got %v", diags)
	}
}

// --- verdicts ---------------------------------------------------------------

func TestFileVerdicts(t *testing.T) {
	vs, err := sourceVerdicts(`package k

func cleanKern(w *WarpCtx, in, out *BufI32) {
	v := w.VecI32()
	w.LoadI32(in, w.GlobalThreadIDs(), v)
	w.StoreI32(out, w.GlobalThreadIDs(), v)
}

func divergentKern(w *WarpCtx, dist *BufI32) {
	mine := w.VecI32()
	w.LoadI32(dist, w.LaneIDs(), mine)
	w.While(func(lane int) bool { return mine[lane] > 0 }, func() {
		w.LoadI32(dist, mine, mine)
		old := w.VecI32()
		w.AtomicMinI32(dist, mine, mine, old)
	})
}

func scratchFactory(w *WarpCtx) int { return 0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("want 2 verdicts (factory filtered), got %+v", vs)
	}
	clean, div := vs[0], vs[1]
	if clean.Kernel != "cleanKern" || div.Kernel != "divergentKern" {
		t.Fatalf("verdict order: %+v", vs)
	}
	if clean.Divergence != "none" || clean.Coalesce != "unit" || clean.Atomics != "none" {
		t.Errorf("clean verdict: %+v", clean)
	}
	if div.Divergence != "data" || div.Loops != "imbalanced" || div.Coalesce != "irregular" || div.Atomics != "collide" {
		t.Errorf("divergent verdict: %+v", div)
	}
	if div.Findings == 0 {
		t.Errorf("divergent kernel should carry findings: %+v", div)
	}
}

func sourceVerdicts(src string) ([]KernelVerdict, error) {
	fset, file, err := parseForTest(src)
	if err != nil {
		return nil, err
	}
	return FileVerdicts(fset, file), nil
}

// --- CFG structure ----------------------------------------------------------

func TestCFGDominanceStructure(t *testing.T) {
	fset, file, err := parseForTest(`package k

func kern(w *WarpCtx, out *BufI32, enabled bool) {
	w.If(func(lane int) bool { return enabled }, func() {
		w.StoreI32(out, w.LaneIDs(), w.ConstI32(1))
	}, nil)
	w.SyncThreads()
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fa := buildFileAnalysis(fset, file)
	if len(fa.reports) != 1 {
		t.Fatalf("want 1 CFG, got %d", len(fa.reports))
	}
	c := fa.reports[0].cfg
	idom := c.Dominators()
	if idom[c.Entry.ID] != c.Entry.ID {
		t.Errorf("entry must dominate itself")
	}
	// The barrier's block (after the If join) must NOT be control-dependent
	// on the If branch: both paths reach it.
	deps := c.ControlDeps()
	for _, b := range c.Blocks {
		for _, ev := range b.Events {
			if ev.Kind == EvBarrier && len(deps[b.ID]) != 0 {
				t.Errorf("post-join barrier block is control-dependent on %d guards", len(deps[b.ID]))
			}
		}
	}
}

func TestTaintStrideLattice(t *testing.T) {
	for _, tc := range []struct {
		a, b, want Stride
	}{
		{StrideUniform, StrideUnit, StrideUnit},
		{StrideUnit, StrideIrregular, StrideIrregular},
		{StrideStrided, StrideUnit, StrideStrided},
	} {
		got := class{stride: tc.a}.join(class{stride: tc.b}).stride
		if got != tc.want {
			t.Errorf("join(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if !strings.Contains(StrideIrregular.String(), "irregular") {
		t.Errorf("Stride.String: %v", StrideIrregular)
	}
}

// TestEveryVwarpPrimitiveModeled fails for any exported internal/vwarp
// function or method that no analysis table models: the analyzers would see
// its outputs as uniform and its memory traffic not at all. Only the
// host-side queue helpers, which never run inside a kernel, are exempt.
func TestEveryVwarpPrimitiveModeled(t *testing.T) {
	hostSide := map[string]bool{"NewOutlierQueue": true, "Reset": true, "Len": true, "Rerun": true}
	var missing []string
	err := walkDir("../vwarp", false, func(_ *token.FileSet, file *ast.File) {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || hostSide[fd.Name.Name] {
				continue
			}
			name := fd.Name.Name
			_, c := constructs[name]
			_, m := memOps[name]
			_, o := outParams[name]
			if !c && !m && !o && !uniformCalls[name] && !laneCalls[name] && !dataCalls[name] && !laneClosureMethods[name] {
				missing = append(missing, name)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("vwarp exports no kernelcheck table models: %v", missing)
	}
}
