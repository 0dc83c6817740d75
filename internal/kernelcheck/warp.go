// warp.go implements the warp-efficiency analyzers on top of the CFG
// (cfg.go) and taint (taint.go) infrastructure, plus the per-kernel
// KernelVerdict summaries that `maxwarp lint` and TestWarplintPredictions
// consume.
//
// The three advisory analyzers map one-to-one onto the pathologies of the
// source paper (Hong et al., PPoPP 2011):
//
//   - divergence: warp-construct predicates and loop bounds that depend on
//     per-lane data. The paper's fix — defer outlier lanes to a queue and
//     process them in a second balanced pass — is what the messages suggest.
//   - coalesce: per-lane device-buffer index stride. Unit-stride indexes
//     coalesce into one transaction; data-dependent (irregular) indexes
//     fan out into one transaction per lane (TxnsPerMemOp in LaunchStats).
//   - atomicserial: atomics whose per-lane targets collide. A warp-uniform
//     target serializes all active lanes every time (the leader idiom or a
//     GroupReduce is the fix); data-dependent targets serialize under
//     contention, which the paper also routes through the outlier queue.
//
// The fourth — barrier — replaces the PR 4 lexical rule with a CFG
// control-dependence check: a SyncThreads is hazardous iff it is
// control-dependent on a guard that is not warp-uniform. That kills the
// lexical rule's false positives (barriers in uniform-predicate branches)
// and its false negatives (barriers reached through helper closures the
// lexical scan never entered).
//
// These analyzers are advisory by design: every interesting graph kernel
// diverges somewhere — that is the paper's subject, not a bug. They live in
// WarpAll rather than All, and the drivers gate them behind a committed
// findings baseline instead of failing on any finding.
package kernelcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WarpAll is the advisory warp-efficiency analyzer set. The drivers run it
// separately from All and gate it on a findings baseline.
var WarpAll = []*Analyzer{DivergenceAnalyzer, CoalesceAnalyzer, AtomicSerialAnalyzer}

// DivergenceAnalyzer flags intra-warp divergence sources: warp-construct
// predicates and loop trip counts that depend on per-lane data.
var DivergenceAnalyzer = &Analyzer{
	Name: "divergence",
	Doc:  "flags warp branches/loops conditioned on lane-dependent data (the paper's divergence pathology)",
	Run:  func(p *Pass) { reportRule(p, "divergence") },
}

// CoalesceAnalyzer flags uncoalesced global memory access: plain (per-lane)
// loads and stores whose index vector is data-dependent, on a looping path.
var CoalesceAnalyzer = &Analyzer{
	Name: "coalesce",
	Doc:  "classifies per-lane device-buffer index stride and flags irregular plain accesses on hot paths",
	Run:  func(p *Pass) { reportRule(p, "coalesce") },
}

// AtomicSerialAnalyzer flags warp-serializing atomics: warp-uniform targets
// without a leader guard, and data-dependent targets on hot paths.
var AtomicSerialAnalyzer = &Analyzer{
	Name: "atomicserial",
	Doc:  "flags atomics that serialize the warp (uniform target without a leader guard, colliding data-dependent targets)",
	Run:  func(p *Pass) { reportRule(p, "atomicserial") },
}

// KernelVerdict is one kernel's static warp-efficiency summary. The string
// fields use small closed vocabularies so the expectations file diffs
// cleanly:
//
//	Divergence: none | laneid | data
//	Loops:      uniform | imbalanced
//	Coalesce:   none | uniform | unit | strided | irregular
//	Atomics:    none | leader | collide | serial
//	Barriers:   none | uniform | divergent
type KernelVerdict struct {
	Kernel string `json:"kernel"`
	File   string `json:"file"`
	Line   int    `json:"line"`

	Divergence string `json:"divergence"`
	Loops      string `json:"loops"`
	Coalesce   string `json:"coalesce"`
	Atomics    string `json:"atomics"`
	Barriers   string `json:"barriers"`

	// Findings counts this kernel's unsuppressed warp-rule findings.
	Findings int `json:"findings"`
}

// finding is a pre-Diagnostic carrying a token.Pos (Diagnostics carry
// resolved Positions; analyzers need the raw Pos for Reportf).
type finding struct {
	pos  token.Pos
	rule string
	msg  string
}

// cfgReport is one kernel CFG's full analysis result.
type cfgReport struct {
	cfg      *CFG
	verdict  KernelVerdict
	findings []finding
}

// reportRule replays the cached per-CFG findings for one rule through the
// pass, deduplicating across kernels (a shared helper closure is inlined
// into every calling kernel's CFG, but one source site is one finding).
func reportRule(p *Pass, rule string) {
	seen := make(map[token.Pos]bool)
	for _, r := range p.analysis().reports {
		for _, f := range r.findings {
			if f.rule != rule || seen[f.pos] {
				continue
			}
			seen[f.pos] = true
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// --- per-file analysis ------------------------------------------------------

// fileAnalysis caches the shared CFG/taint infrastructure for one file.
type fileAnalysis struct {
	binds   *bindings
	taint   *Taint
	reports []*cfgReport
}

// buildFileAnalysis discovers kernel roots, builds their CFGs, and runs the
// warp rules over each.
func buildFileAnalysis(fset *token.FileSet, file *ast.File) *fileAnalysis {
	fa := &fileAnalysis{
		binds: collectBindings(file),
		taint: ComputeTaint(file),
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !declDefinesKernel(fd) {
			continue
		}
		c := BuildCFG(fset, fd, fa.binds)
		if !cfgInteresting(c) {
			continue // scratch factories, pure host plumbing
		}
		fa.reports = append(fa.reports, analyzeCFG(fset, c, fa.taint))
	}
	return fa
}

// declDefinesKernel reports whether a top-level function is worth a CFG:
// it takes a *WarpCtx itself, or it contains a kernel function literal
// (factories returning kernels, hosts launching inline kernels).
func declDefinesKernel(fd *ast.FuncDecl) bool {
	if isKernelishFuncType(fd.Type) {
		return true
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && isKernelishFuncType(fl.Type) {
			found = true
		}
		return !found
	})
	return found
}

// cfgInteresting filters out CFGs with no kernel substance: no primitive
// events and no warp guards (e.g. a scratch factory whose closures only
// execute from its callers' CFGs).
func cfgInteresting(c *CFG) bool {
	for _, b := range c.Blocks {
		if len(b.Events) > 0 {
			return true
		}
	}
	for _, g := range c.Guards {
		if g.Kind != GuardGoIf && g.Kind != GuardGoFor {
			return true
		}
	}
	return false
}

// --- the rules --------------------------------------------------------------

// inLoop reports whether any enclosing guard loops: the "hot path"
// criterion for the coalesce and atomic-collision rules.
func inLoop(b *Block) bool {
	for _, g := range b.Guards {
		if g.Loop {
			return true
		}
	}
	return false
}

// leaderGuarded reports whether the block runs under a lane-id-predicate
// warp If — the "if (lane == 0)" leader idiom.
func leaderGuarded(b *Block) bool {
	for _, g := range b.Guards {
		if g.Kind == GuardWarpIf && g.Class == PredLaneID {
			return true
		}
	}
	return false
}

// analyzeCFG runs all four warp rules over one kernel CFG and assembles
// its verdict.
func analyzeCFG(fset *token.FileSet, c *CFG, tt *Taint) *cfgReport {
	r := &cfgReport{cfg: c}
	for _, g := range c.Guards {
		if g.Kind != GuardDriver { // drivers are pre-classified PredData
			g.Class = tt.ClassifyGuard(g)
		}
	}
	seen := make(map[string]bool)
	add := func(pos token.Pos, rule, format string, args ...any) {
		f := finding{pos: pos, rule: rule, msg: fmt.Sprintf(format, args...)}
		k := fmt.Sprintf("%d/%s/%s", pos, rule, f.msg)
		if !seen[k] {
			seen[k] = true
			r.findings = append(r.findings, f)
		}
	}

	// divergence: warp guards on per-lane data. Drivers are exempt (round
	// imbalance is the distribution scheme's business, not the kernel's),
	// and plain Go guards are exempt (kernel Go code runs once per warp, so
	// a Go branch is warp-uniform by construction).
	divData, divLane, loopsImb := false, false, false
	for _, g := range c.Guards {
		switch g.Kind {
		case GuardWarpIf:
			if g.Class == PredData {
				divData = true
				add(g.Pos, "divergence",
					"%s predicate depends on per-lane data: lanes diverge inside the warp; consider deferring outlier tasks (Options.DeferThreshold) or regrouping the work", g.Desc)
			} else if g.Class == PredLaneID {
				divLane = true
			}
		case GuardWarpWhile:
			if g.Class == PredData {
				divData, loopsImb = true, true
				add(g.Pos, "divergence",
					"%s trip count is per-lane data-dependent: the whole warp runs to its slowest lane; consider outlier deferral for heavy lanes", g.Desc)
			} else if g.Class == PredLaneID {
				divLane = true
			}
		case GuardSIMDRange:
			if g.Class == PredData {
				divData, loopsImb = true, true
				add(g.Pos, "divergence",
					"%s bounds are per-task data (degree-dependent): intra-warp workload imbalance; route heavy tasks through the outlier queue", g.Desc)
			} else if g.Class == PredLaneID {
				divLane = true
			}
		}
	}

	// coalesce + atomicserial + barrier need per-block context.
	worstMem := StrideUniform
	sawMem := false
	sawAtomic, atomicSerial, atomicCollide := false, false, false
	sawBarrier, barrierDiv := false, false
	deps := c.ControlDeps()
	for _, b := range c.Blocks {
		for _, ev := range b.Events {
			switch ev.Kind {
			case EvLoad, EvStore:
				if ev.Shared {
					continue // shared memory has no coalescing cost here
				}
				s := tt.ClassifyIdx(ev.Idx)
				sawMem = true
				if s > worstMem {
					worstMem = s
				}
				if s == StrideIrregular && !ev.Grouped && inLoop(b) {
					add(ev.Call.Pos(), "coalesce",
						"%s index %q is data-dependent (irregular stride): uncoalesced global access on a hot path — one memory transaction per lane; sort/tile the indexes or use a grouped load", ev.Name, exprText(ev.Idx))
				}
			case EvAtomic:
				sawAtomic = true
				s := tt.ClassifyIdx(ev.Idx)
				switch {
				case s == StrideUniform && !ev.Grouped && !leaderGuarded(b):
					atomicSerial = true
					add(ev.Call.Pos(), "atomicserial",
						"every active lane runs %s against the same address %q: the warp serializes on every pass; elect a leader lane (w.If on LaneIDs()) or reduce first (GroupReduce*)", ev.Name, exprText(ev.Idx))
				case s >= StrideUnit:
					atomicCollide = true
					if s == StrideIrregular && inLoop(b) {
						add(ev.Call.Pos(), "atomicserial",
							"%s target %q is per-lane data-dependent: colliding lanes serialize under contention; the paper defers contended updates through the outlier queue", ev.Name, exprText(ev.Idx))
					}
				}
			case EvBarrier:
				sawBarrier = true
				if g := divergentController(b, deps); g != nil {
					barrierDiv = true
					add(ev.Call.Pos(), "barrier",
						"%s is control-dependent on divergent control flow (%s): lanes or warps can skip it, deadlocking the block; hoist the barrier to warp-uniform code", ev.Name, g.Desc)
				}
			}
		}
	}

	v := &r.verdict
	v.Kernel = c.Name
	pos := fset.Position(c.Pos)
	v.File = filepath.Base(pos.Filename)
	v.Line = pos.Line
	switch {
	case divData:
		v.Divergence = "data"
	case divLane:
		v.Divergence = "laneid"
	default:
		v.Divergence = "none"
	}
	if loopsImb {
		v.Loops = "imbalanced"
	} else {
		v.Loops = "uniform"
	}
	if sawMem {
		v.Coalesce = worstMem.String()
	} else {
		v.Coalesce = "none"
	}
	switch {
	case !sawAtomic:
		v.Atomics = "none"
	case atomicSerial:
		v.Atomics = "serial"
	case atomicCollide:
		v.Atomics = "collide"
	default:
		v.Atomics = "leader"
	}
	switch {
	case !sawBarrier:
		v.Barriers = "none"
	case barrierDiv:
		v.Barriers = "divergent"
	default:
		v.Barriers = "uniform"
	}
	v.Findings = len(r.findings)
	return r
}

// divergentController returns the first guard in the block's control-
// dependence set that makes a barrier hazardous, or nil when every
// controlling guard is warp-uniform. Warp constructs are hazardous under
// any non-uniform predicate (a restricted lane mask at a barrier is the
// synccheck violation); Go branches are hazardous when data-dependent
// (different warps take different sides and disagree on barrier counts);
// driver round loops are always hazardous (warps run different counts).
func divergentController(b *Block, deps [][]*Block) *Guard {
	for _, d := range deps[b.ID] {
		g := d.BranchGuard
		if g == nil {
			continue
		}
		switch g.Kind {
		case GuardWarpIf, GuardWarpWhile, GuardSIMDRange:
			if g.Class != PredUniform {
				return g
			}
		case GuardGoIf, GuardGoFor:
			if g.Class != PredUniform {
				return g
			}
		case GuardDriver:
			return g
		}
	}
	return nil
}

// --- verdict entry points ---------------------------------------------------

// FileVerdicts analyzes one parsed file and returns its kernel verdicts in
// source order.
func FileVerdicts(fset *token.FileSet, file *ast.File) []KernelVerdict {
	fa := buildFileAnalysis(fset, file)
	out := make([]KernelVerdict, 0, len(fa.reports))
	for _, r := range fa.reports {
		out = append(out, r.verdict)
	}
	return out
}

// DirVerdicts parses every .go file in dir (skipping _test.go files unless
// includeTests) and returns all kernel verdicts sorted by file then line.
func DirVerdicts(dir string, includeTests bool) ([]KernelVerdict, error) {
	var out []KernelVerdict
	err := walkDir(dir, includeTests, func(fset *token.FileSet, file *ast.File) {
		out = append(out, FileVerdicts(fset, file)...)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// DirWarpFindings runs the advisory warp analyzer set over every file in
// dir and returns the unsuppressed findings in file order.
func DirWarpFindings(dir string, includeTests bool) ([]Diagnostic, error) {
	var out []Diagnostic
	err := walkDir(dir, includeTests, func(fset *token.FileSet, file *ast.File) {
		out = append(out, CheckFileWith(fset, file, WarpAll)...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkDir parses each .go file in dir (non-recursive, matching the package
// layout) and hands it to fn.
func walkDir(dir string, includeTests bool, fn func(*token.FileSet, *ast.File)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		fn(fset, file)
	}
	return nil
}
