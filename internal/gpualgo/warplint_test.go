package gpualgo

import (
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"maxwarp/internal/gengraph"
	"maxwarp/internal/graph"
	"maxwarp/internal/kernelcheck"
	"maxwarp/internal/simt"
)

// TestWarplintPredictions is the static/dynamic cross-validation harness:
// internal/kernelcheck's CFG + lane-taint verdicts on one side, the
// simulator's measured LaunchStats counters on the other. Both sides are
// pinned in testdata/warplint_expectations.json (regenerate with
// `go test ./internal/gpualgo -run TestWarplintPredictions -update-warplint`
// and review the diff), and a set of correlation assertions checks that the
// predictions actually track the machine:
//
//	divergence=data   ->  FullMaskOps/Instructions materially below 1
//	divergence=none   ->  FullMaskOps == Instructions (every op full-mask)
//	coalesce=irregular -> MemTxns/MemOps above the unit-stride floor
//	atomics=serial    ->  AtomicSerial/AtomicOps near warpWidth-1
//
// The fixture kernels below are the controlled ends of each axis; the real
// gpualgo algorithms ride along so a kernel rewrite that shifts a verdict
// or a counter shows up as an expectations diff in review.

var updateWarplint = flag.Bool("update-warplint", false,
	"rewrite testdata/warplint_expectations.json from the current static verdicts and measured counters")

const warplintExpectationsPath = "testdata/warplint_expectations.json"

// --- fixture kernels --------------------------------------------------------
//
// Each fixture isolates one warp-efficiency axis with a known static verdict
// and a predictable dynamic signature. They are top-level factory functions
// so DirVerdicts-style analysis sees them exactly like production kernels.

// warplintFillKernel is the all-clean fixture: uniform value, unit-stride
// store, no branches. Statically divergence=none/coalesce=unit; dynamically
// every issued instruction carries a full mask.
func warplintFillKernel(dst *simt.BufI32, val int32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		v := w.ConstI32(val)
		w.StoreI32(dst, w.GlobalThreadIDs(), v)
	}
}

// warplintStridedKernel indexes at a uniform multiple of the thread id:
// statically coalesce=strided, dynamically several transactions per memory
// op (lanes span stride x warpWidth x 4 bytes).
func warplintStridedKernel(src, dst *simt.BufI32, stride int32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		s := w.ConstI32(stride)
		idx := w.VecI32()
		w.Apply(1, func(lane int) { idx[lane] = w.GlobalThreadIDs()[lane] * s[lane] })
		v := w.VecI32()
		w.LoadI32(src, idx, v)
		w.StoreI32(dst, idx, v)
	}
}

// warplintGatherKernel loads its indexes from memory and gathers through
// them: statically coalesce=irregular, dynamically near one transaction per
// lane when the index buffer is a scrambled permutation.
func warplintGatherKernel(idx, src, dst *simt.BufI32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		g := w.VecI32()
		w.LoadI32(idx, w.GlobalThreadIDs(), g)
		v := w.VecI32()
		w.LoadI32(src, g, v)
		w.StoreI32(dst, w.GlobalThreadIDs(), v)
	}
}

// warplintDataBranchKernel branches on loaded values: statically
// divergence=data, dynamically DivergentBranches > 0 and a full-mask ratio
// below 1 whenever a warp sees mixed parities.
func warplintDataBranchKernel(src, dst *simt.BufI32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		v := w.VecI32()
		w.LoadI32(src, w.GlobalThreadIDs(), v)
		out := w.VecI32()
		w.If(func(lane int) bool { return v[lane]%2 == 0 },
			func() { w.Apply(1, func(lane int) { out[lane] = v[lane] * 2 }) },
			func() { w.Apply(1, func(lane int) { out[lane] = v[lane] + 1 }) })
		w.StoreI32(dst, w.GlobalThreadIDs(), out)
	}
}

// warplintAtomicHotspotKernel has every lane hammer one counter: statically
// atomics=serial, dynamically warpWidth-1 extra serialization steps per op.
//
//kernelcheck:ignore atomicserial — the hotspot is this fixture's entire point
func warplintAtomicHotspotKernel(counter *simt.BufI32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		zero := w.ConstI32(0)
		one := w.ConstI32(1)
		old := w.VecI32()
		w.AtomicAddI32(counter, zero, one, old)
	}
}

// warplintAtomicScatterKernel has each lane update its own cell. The static
// verdict is the conservative atomics=collide (per-lane targets *may*
// collide); the measured counter shows the unit-stride case never does
// (AtomicSerial == 0) — the gap between the sound verdict and the machine.
func warplintAtomicScatterKernel(cells *simt.BufI32) func(*simt.WarpCtx) {
	return func(w *simt.WarpCtx) {
		one := w.ConstI32(1)
		old := w.VecI32()
		w.AtomicAddI32(cells, w.GlobalThreadIDs(), one, old)
	}
}

// --- expectations file shape ------------------------------------------------

type warplintKernelExp struct {
	Kernel     string `json:"kernel"`
	File       string `json:"file"`
	Divergence string `json:"divergence"`
	Loops      string `json:"loops"`
	Coalesce   string `json:"coalesce"`
	Atomics    string `json:"atomics"`
	Barriers   string `json:"barriers"`
	Findings   int    `json:"findings"`
}

// warplintCounters is the deterministic dynamic fingerprint of one run: raw
// integer counters only (the simulator is bit-deterministic in sequential
// mode, so these compare exactly; ratios are derived at assertion time).
type warplintCounters struct {
	Instructions      int64 `json:"instructions"`
	FullMaskOps       int64 `json:"fullmask_ops"`
	MemOps            int64 `json:"mem_ops"`
	MemTxns           int64 `json:"mem_txns"`
	AtomicOps         int64 `json:"atomic_ops"`
	AtomicSerial      int64 `json:"atomic_serial"`
	DivergentBranches int64 `json:"divergent_branches"`
}

type warplintDynExp struct {
	Name string `json:"name"`
	// Files lists the source files whose kernel verdicts this run exercises;
	// the correlation assertions join static verdicts to measured counters
	// through this mapping.
	Files    []string         `json:"files"`
	Counters warplintCounters `json:"counters"`
}

type warplintExpectations struct {
	Kernels []warplintKernelExp `json:"kernels"`
	Dynamic []warplintDynExp    `json:"dynamic"`
}

func countersOf(s simt.LaunchStats) warplintCounters {
	return warplintCounters{
		Instructions:      s.Instructions,
		FullMaskOps:       s.FullMaskOps,
		MemOps:            s.MemOps,
		MemTxns:           s.MemTxns,
		AtomicOps:         s.AtomicOps,
		AtomicSerial:      s.AtomicSerial,
		DivergentBranches: s.DivergentBranches,
	}
}

// --- static side ------------------------------------------------------------

// warplintStaticVerdicts returns the verdicts for every production kernel in
// this package plus the fixture kernels in this file (other _test.go files
// are excluded so unrelated test helpers don't churn the expectations).
func warplintStaticVerdicts(t *testing.T) []warplintKernelExp {
	t.Helper()
	vs, err := kernelcheck.DirVerdicts(".", false)
	if err != nil {
		t.Fatalf("static analysis: %v", err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "warplint_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixtures: %v", err)
	}
	vs = append(vs, kernelcheck.FileVerdicts(fset, f)...)
	out := make([]warplintKernelExp, 0, len(vs))
	for _, v := range vs {
		out = append(out, warplintKernelExp{
			Kernel: v.Kernel, File: v.File,
			Divergence: v.Divergence, Loops: v.Loops, Coalesce: v.Coalesce,
			Atomics: v.Atomics, Barriers: v.Barriers, Findings: v.Findings,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out
}

// --- dynamic side -----------------------------------------------------------

// warplintRun is one measured workload: fixture launches and full algorithm
// runs share the same counter fingerprint.
type warplintRun struct {
	name  string
	files []string
	// kernels, when set, narrows the static-verdict join to specific kernel
	// names: fixture launches run exactly one kernel, so correlating them
	// against every kernel in this file would cross the axes.
	kernels []string
	run     func(t *testing.T, d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID) simt.LaunchStats
}

const warplintN = 256 // exact multiple of the warp width: no bounds guard needed

// warplintFixtureRuns launches each fixture kernel on full warps with
// deterministic host-side inputs.
func warplintFixtureRuns() []warplintRun {
	lc := simt.Grid1D(warplintN, 64)
	launch := func(t *testing.T, d *simt.Device, k func(*simt.WarpCtx)) simt.LaunchStats {
		t.Helper()
		stats, err := d.Launch(lc, k)
		if err != nil {
			t.Fatalf("fixture launch: %v", err)
		}
		return *stats
	}
	iota32 := func(n, stride int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i) % stride
		}
		return out
	}
	return []warplintRun{
		{name: "fixture-fill", files: []string{"warplint_test.go"}, kernels: []string{"warplintFillKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			dst := d.AllocI32("wl.fill", warplintN)
			return launch(t, d, warplintFillKernel(dst, 7))
		}},
		{name: "fixture-strided", files: []string{"warplint_test.go"}, kernels: []string{"warplintStridedKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			src := d.UploadI32("wl.ssrc", iota32(warplintN*4, 13))
			dst := d.AllocI32("wl.sdst", warplintN*4)
			return launch(t, d, warplintStridedKernel(src, dst, 4))
		}},
		{name: "fixture-gather", files: []string{"warplint_test.go"}, kernels: []string{"warplintGatherKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			perm := make([]int32, warplintN)
			for i := range perm {
				perm[i] = int32((i*97 + 31) % warplintN) // 97 coprime to 256: a permutation
			}
			idx := d.UploadI32("wl.gidx", perm)
			src := d.UploadI32("wl.gsrc", iota32(warplintN, 11))
			dst := d.AllocI32("wl.gdst", warplintN)
			return launch(t, d, warplintGatherKernel(idx, src, dst))
		}},
		{name: "fixture-databranch", files: []string{"warplint_test.go"}, kernels: []string{"warplintDataBranchKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			vals := make([]int32, warplintN)
			for i := range vals {
				vals[i] = int32((i*37 + 13) % 97) // mixed parities inside every warp
			}
			src := d.UploadI32("wl.bsrc", vals)
			dst := d.AllocI32("wl.bdst", warplintN)
			return launch(t, d, warplintDataBranchKernel(src, dst))
		}},
		{name: "fixture-atomic-hotspot", files: []string{"warplint_test.go"}, kernels: []string{"warplintAtomicHotspotKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			counter := d.AllocI32("wl.hot", 1)
			return launch(t, d, warplintAtomicHotspotKernel(counter))
		}},
		{name: "fixture-atomic-scatter", files: []string{"warplint_test.go"}, kernels: []string{"warplintAtomicScatterKernel"}, run: func(t *testing.T, d *simt.Device, _ *graph.CSR, _ []int32, _ graph.VertexID) simt.LaunchStats {
			cells := d.AllocI32("wl.cells", warplintN)
			return launch(t, d, warplintAtomicScatterKernel(cells))
		}},
	}
}

// warplintFiles maps every table entry to the source files holding its
// kernels: the static side of the entry's fingerprint.
var warplintFiles = map[string][]string{
	"bfs": {"bfs.go"}, "bfsfrontier": {"bfsfrontier.go"}, "bfsdir": {"bfsdir.go"},
	"sssp": {"sssp.go"}, "deltastep": {"deltastep.go"}, "pagerank": {"pagerank.go"},
	"cc": {"cc.go"}, "scc": {"scc.go"}, "nbrsum": {"nbrsum.go"}, "spmv": {"spmv.go"},
	"triangles": {"triangles.go"}, "kcore": {"kcore.go"}, "mis": {"mis.go"},
	"coloring": {"coloring.go"}, "bc": {"betweenness.go"},
	"closeness": {"closeness.go", "msbfs.go"}, "msbfs": {"msbfs.go"},
}

// warplintAlgoRuns runs every table entry once, K=4, with the sanitizer
// sweep's inputs on the shared seeded RMAT graph.
func warplintAlgoRuns() []warplintRun {
	var runs []warplintRun
	for _, a := range Algorithms() {
		a := a
		runs = append(runs, warplintRun{name: a.Name, files: warplintFiles[a.Name], run: func(t *testing.T, d *simt.Device, g *graph.CSR, weights []int32, src graph.VertexID) simt.LaunchStats {
			in, err := sweepInput(&a, g, weights, src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := a.Run(d, in, Options{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			return out.Stats
		}})
	}
	return runs
}

// --- the harness ------------------------------------------------------------

func TestWarplintPredictions(t *testing.T) {
	kernels := warplintStaticVerdicts(t)
	byFile := make(map[string][]warplintKernelExp)
	for _, k := range kernels {
		byFile[k.File] = append(byFile[k.File], k)
	}

	g, err := gengraph.RMAT(8, 8, gengraph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestOutComponentSeed(g)
	weights := gengraph.EdgeWeights(g, 10, 5)

	runs := append(warplintFixtureRuns(), warplintAlgoRuns()...)
	dynamic := make([]warplintDynExp, 0, len(runs))
	measured := make(map[string]warplintCounters, len(runs))
	warpWidth := 0
	for _, r := range runs {
		d := parallelDevice(t, 1) // sequential: bit-deterministic counters
		warpWidth = d.Config().WarpWidth
		c := countersOf(r.run(t, d, g, weights, src))
		measured[r.name] = c
		dynamic = append(dynamic, warplintDynExp{Name: r.name, Files: r.files, Counters: c})
	}

	if *updateWarplint {
		exp := warplintExpectations{Kernels: kernels, Dynamic: dynamic}
		data, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(warplintExpectationsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(warplintExpectationsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d kernel verdicts and %d dynamic fingerprints to %s",
			len(kernels), len(dynamic), warplintExpectationsPath)
		return
	}

	// 1. Pin the static verdicts against the committed expectations: any
	// verdict change — new kernel, removed kernel, shifted classification —
	// must come with a reviewed regeneration.
	data, err := os.ReadFile(warplintExpectationsPath)
	if err != nil {
		t.Fatalf("missing expectations (%v); regenerate with -update-warplint and commit the file", err)
	}
	var want warplintExpectations
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("bad expectations file: %v", err)
	}
	key := func(k warplintKernelExp) string { return k.File + "/" + k.Kernel }
	wantKernels := make(map[string]warplintKernelExp, len(want.Kernels))
	for _, k := range want.Kernels {
		wantKernels[key(k)] = k
	}
	for _, got := range kernels {
		exp, ok := wantKernels[key(got)]
		if !ok {
			t.Errorf("kernel %s has no committed expectation; regenerate with -update-warplint", key(got))
			continue
		}
		if got != exp {
			t.Errorf("static verdict drift for %s:\n  got  %+v\n  want %+v\nregenerate with -update-warplint if intended", key(got), got, exp)
		}
		delete(wantKernels, key(got))
	}
	for k := range wantKernels {
		t.Errorf("expectations list kernel %s which no longer exists; regenerate with -update-warplint", k)
	}

	// 2. Pin the measured counters: the sequential simulator is
	// deterministic, so raw integers compare exactly.
	wantDyn := make(map[string]warplintCounters, len(want.Dynamic))
	for _, d := range want.Dynamic {
		wantDyn[d.Name] = d.Counters
	}
	for _, d := range dynamic {
		exp, ok := wantDyn[d.Name]
		if !ok {
			t.Errorf("run %q has no committed dynamic fingerprint; regenerate with -update-warplint", d.Name)
			continue
		}
		if d.Counters != exp {
			t.Errorf("dynamic counter drift for %q:\n  got  %+v\n  want %+v\nregenerate with -update-warplint if intended", d.Name, d.Counters, exp)
		}
		delete(wantDyn, d.Name)
	}
	for name := range wantDyn {
		t.Errorf("expectations list run %q which no longer exists; regenerate with -update-warplint", name)
	}

	// 3. The point of the exercise: static verdicts must correlate with the
	// measured counters, run by run, through the files mapping.
	fullmask := func(c warplintCounters) float64 {
		return float64(c.FullMaskOps) / float64(c.Instructions)
	}
	txns := func(c warplintCounters) float64 {
		if c.MemOps == 0 {
			return 0
		}
		return float64(c.MemTxns) / float64(c.MemOps)
	}
	for _, r := range runs {
		c := measured[r.name]
		narrowed := make(map[string]bool, len(r.kernels))
		for _, name := range r.kernels {
			narrowed[name] = true
		}
		var ks []warplintKernelExp
		for _, f := range r.files {
			for _, k := range byFile[f] {
				if len(narrowed) == 0 || narrowed[k.Kernel] {
					ks = append(ks, k)
				}
			}
		}
		if len(ks) == 0 {
			t.Errorf("%s: no static verdicts found for files %v kernels %v", r.name, r.files, r.kernels)
			continue
		}
		divData, allCleanDiv, serial := false, true, false
		for _, k := range ks {
			switch k.Divergence {
			case "data":
				divData = true
				allCleanDiv = false
			case "laneid":
				allCleanDiv = false
			}
			if k.Atomics == "serial" {
				serial = true
			}
		}
		if divData && fullmask(c) >= 0.99 {
			t.Errorf("%s: statically data-divergent but measured full-mask ratio %.4f — the prediction missed", r.name, fullmask(c))
		}
		if allCleanDiv && c.FullMaskOps != c.Instructions {
			t.Errorf("%s: statically divergence-free but %d/%d ops ran under a partial mask", r.name, c.Instructions-c.FullMaskOps, c.Instructions)
		}
		if allCleanDiv && c.DivergentBranches != 0 {
			t.Errorf("%s: statically divergence-free but measured %d divergent branches", r.name, c.DivergentBranches)
		}
		// Multi-kernel algorithm totals dilute any one kernel's
		// serialization, so the aggregate assertion is existence; the
		// near-warpWidth bound is checked on the single-kernel hotspot
		// fixture below.
		if serial && c.AtomicOps > 0 && c.AtomicSerial == 0 {
			t.Errorf("%s: statically atomics=serial but measured zero serialization steps over %d atomic ops",
				r.name, c.AtomicOps)
		}
	}

	// Fixture-level contrasts: each axis's dirty end must measure strictly
	// worse than its clean end.
	fill, gather, strided := measured["fixture-fill"], measured["fixture-gather"], measured["fixture-strided"]
	branch, hotspot, scatter := measured["fixture-databranch"], measured["fixture-atomic-hotspot"], measured["fixture-atomic-scatter"]
	if txns(gather) < txns(fill)+0.5 {
		t.Errorf("irregular gather coalesces like unit stride: %.2f vs %.2f txns/op", txns(gather), txns(fill))
	}
	if txns(strided) < txns(fill)+0.5 {
		t.Errorf("strided access coalesces like unit stride: %.2f vs %.2f txns/op", txns(strided), txns(fill))
	}
	if branch.DivergentBranches == 0 {
		t.Error("data-branch fixture measured no divergent branches")
	}
	if fullmask(branch) >= fullmask(fill) {
		t.Errorf("data-branch full-mask ratio %.4f not below clean fill's %.4f", fullmask(branch), fullmask(fill))
	}
	if hotspot.AtomicOps == 0 || hotspot.AtomicSerial < hotspot.AtomicOps*int64(warpWidth-1) {
		t.Errorf("atomic hotspot: %d serialization steps over %d ops, want %d per op (warp width %d)",
			hotspot.AtomicSerial, hotspot.AtomicOps, warpWidth-1, warpWidth)
	}
	if scatter.AtomicSerial != 0 {
		t.Errorf("atomic scatter: unit-stride targets measured %d serialization steps, want 0", scatter.AtomicSerial)
	}
}
