// cfg.go builds a control-flow graph per kernel over *WarpCtx kernel bodies.
//
// The CFG is the substrate the warp-efficiency analyzers (warp.go) and the
// dominance-based barrier analyzer run on. It models two layers of control
// flow at once:
//
//   - plain Go control flow (if/for/range/switch/return/break/continue), and
//   - the simulator's structured warp constructs — WarpCtx.If/IfGrouped/
//     While, vwarp's Tasks.Mask/SIMDRange/Edges/GroupLoop and the ForEach
//     driver — whose "branch targets" are function values.
//
// Because this repo's kernels follow the set-then-call closure-caching idiom
// (closures built once, stored in scratch structs, invoked by field name),
// the builder resolves function-valued arguments through a file-wide binding
// table: `s.body = func(...){...}` binds "s.body" (and the bare field name as
// a fallback), and a later `ts.Mask(s.maskPred, s.maskBody)` inlines the
// bound literals into the caller's CFG. Same-file top-level kernel-context
// functions (functions taking a *WarpCtx) are inlined at call sites the same
// way, so a kernel like bfsLevelKernel — whose actual lane work lives in
// closures built by bfsScratchFor — still gets a complete CFG.
//
// Everything is syntactic (stdlib go/ast only, no go/types): resolution is
// by name, recursion is cut by an inlining guard, and unresolvable calls are
// treated as opaque. The analyzers are linters, not verifiers — they accept
// this approximation and the validation harness (TestWarplintPredictions)
// cross-checks the verdicts against the simulator's measured counters.
package kernelcheck

import (
	"go/ast"
	"go/token"
)

// GuardKind classifies the branch/loop constructs a block can be governed by.
type GuardKind int

const (
	// GuardGoIf is a plain Go if or switch: the whole warp (host goroutine)
	// takes one side. Divergence hazard only when the condition is
	// lane-dependent (different warps branch differently).
	GuardGoIf GuardKind = iota
	// GuardGoFor is a plain Go for/range loop.
	GuardGoFor
	// GuardWarpIf is WarpCtx.If/IfGrouped or Tasks.Mask: the body runs under
	// a restricted lane mask.
	GuardWarpIf
	// GuardWarpWhile is WarpCtx.While: lanes drop out as their condition
	// fails — the paper's intra-warp workload-imbalance mechanism.
	GuardWarpWhile
	// GuardSIMDRange is Tasks.SIMDRange/Edges/GroupLoop: a masked
	// lane-strided loop over per-group [start, end) bounds.
	GuardSIMDRange
	// GuardDriver is the vwarp ForEach round loop: warps run different round
	// counts (task availability varies per warp), so code under it is
	// never block-uniform even though no user predicate is involved.
	GuardDriver
)

// PredClass classifies a guard's condition by what it reads (see taint.go).
type PredClass int

const (
	// PredUniform reads only warp-uniform state: every lane (and every warp
	// seeing the same host values) takes the same side.
	PredUniform PredClass = iota
	// PredLaneID depends on the lane/group id but not on loaded data — the
	// structural "if (lane == 0)" leader idiom. Divergent within the warp,
	// but statically bounded and uniform across warps.
	PredLaneID
	// PredData depends on lane-dependent data (per-lane loads, atomics'
	// old values, per-group tasks): the paper's divergence pathology.
	PredData
)

func (p PredClass) String() string {
	switch p {
	case PredUniform:
		return "uniform"
	case PredLaneID:
		return "laneid"
	default:
		return "data"
	}
}

// Guard is one branch or loop construct governing a CFG region.
type Guard struct {
	Kind GuardKind
	// Pos is the construct's source position (the call or the if/for token).
	Pos token.Pos
	// Desc names the construct for messages: "w.If", "ts.SIMDRange", "if"...
	Desc string
	// Cond is the predicate closure (warp constructs) or condition
	// expression (Go constructs); nil for drivers and condition-less loops.
	Cond ast.Node
	// Bounds are the trip-count expressions of a SIMDRange/GroupLoop.
	Bounds []ast.Expr
	// Rows marks an Edges loop, whose trip count is the row length Row
	// loaded: per-task data by construction.
	Rows bool
	// Loop marks constructs whose body may execute more than once.
	Loop bool
	// Class is the condition's taint classification, filled by the taint
	// pass. Drivers are always PredData (round counts differ per warp).
	Class PredClass
}

// EventKind classifies the kernel-primitive calls recorded in blocks.
type EventKind int

const (
	// EvLoad is a plain global/shared load (LoadI32, LoadF32, ...).
	EvLoad EventKind = iota
	// EvStore is a plain global/shared store.
	EvStore
	// EvAtomic is an atomic RMW (AtomicAddI32, AtomicMinI32, ...).
	EvAtomic
	// EvBarrier is SyncThreads/Barrier.
	EvBarrier
)

// Event is one interesting primitive call, positioned in its block.
type Event struct {
	Kind EventKind
	Call *ast.CallExpr
	// Name is the method name ("LoadI32", "AtomicAddI32", "SyncThreads").
	Name string
	// Recv is the receiver expression text ("w", "ts", ...).
	Recv string
	// Idx is the index-vector argument of a memory/atomic op (nil for
	// barriers); Grouped marks the replicated per-group variants.
	Idx     ast.Expr
	Grouped bool
	// Shared marks shared-memory accesses (LoadSharedI32, AtomicAddSharedI32).
	Shared bool
}

// Block is one CFG basic block.
type Block struct {
	ID int
	// Events are the primitive calls executed in this block, in order.
	Events []Event
	// Succs are the control-flow successors.
	Succs []*Block
	// Guards is the construction-time stack of enclosing guards (outermost
	// first). For the structured CFGs this builder produces it coincides
	// with the control-dependence closure — ControlDeps computes the latter
	// from dominance frontiers, and the barrier analyzer consumes that.
	Guards []*Guard
	// BranchGuard is the guard this block branches on (it has >1 successor
	// because of it), nil otherwise.
	BranchGuard *Guard
}

// CFG is one kernel's control-flow graph.
type CFG struct {
	// Name is the root function's name (top-level FuncDecl).
	Name string
	// Pos is the root function's position.
	Pos token.Pos
	// Entry and Exit are the virtual boundary blocks.
	Entry, Exit *Block
	// Blocks lists every block, Entry first.
	Blocks []*Block
	// Guards lists every guard created while building, in source order of
	// first encounter (a guard inlined into two call sites appears once per
	// inlining).
	Guards []*Guard
	// Truncated is set when the inlining depth limit was hit somewhere —
	// the CFG is still usable but may be missing inlined regions.
	Truncated bool
}

// maxInlineDepth bounds closure/function inlining (recursion is cut by the
// active-set guard; the depth limit bounds pathological chains).
const maxInlineDepth = 12

// constructArity describes how a known warp construct consumes its args.
type construct struct {
	// pred is the index of the predicate/condition closure arg, -1 if none.
	pred int
	// bodies are the indices of body closure args.
	bodies []int
	// bounds are the indices of trip-count vector args (SIMDRange).
	bounds []int
	// rows marks Edges: the bounds are the receiver's row range, and each
	// round loads the neighbor col[j] before the body runs.
	rows bool
	// kind/loop describe the guard to create; guarded=false means the
	// bodies are inlined straight-line (Apply, SISD, ...).
	kind    GuardKind
	loop    bool
	guarded bool
}

// constructs maps method names to their structural behavior. Receiver types
// are unknown (no go/types), so names are matched on any receiver — the
// names are specific enough in this codebase.
var constructs = map[string]construct{
	"If":        {pred: 0, bodies: []int{1, 2}, kind: GuardWarpIf, guarded: true},
	"IfGrouped": {pred: 1, bodies: []int{2, 3}, kind: GuardWarpIf, guarded: true},
	"While":     {pred: 0, bodies: []int{1}, kind: GuardWarpWhile, loop: true, guarded: true},
	"Mask":      {pred: 0, bodies: []int{1}, kind: GuardWarpIf, guarded: true},
	"SIMDRange": {pred: -1, bodies: []int{2}, bounds: []int{0, 1}, kind: GuardSIMDRange, loop: true, guarded: true},
	"GroupLoop": {pred: -1, bodies: []int{2}, bounds: []int{0, 1}, kind: GuardSIMDRange, loop: true, guarded: true},
	"Edges":     {pred: -1, bodies: []int{1}, rows: true, kind: GuardSIMDRange, loop: true, guarded: true},

	// Straight-line per-lane/per-group executors: bodies run under the
	// current mask, no new guard.
	"Apply":           {pred: -1, bodies: []int{1}},
	"ApplyReplicated": {pred: -1, bodies: []int{2}},
	"SISD":            {pred: -1, bodies: []int{1}},
	"Ballot":          {pred: -1, bodies: []int{0}},

	// The vwarp driver: body runs in a round loop whose trip count varies
	// per warp. The guard is "intrinsic": the divergence analyzer does not
	// blame the kernel for it, but barriers under it are real hazards.
	"ForEach": {pred: -1, bodies: []int{3}, kind: GuardDriver, loop: true, guarded: true},
}

// memOps maps memory-primitive names to their event shape. idx is the
// index-vector argument position.
type memOp struct {
	kind    EventKind
	idx     int
	grouped bool
	shared  bool
}

var memOps = map[string]memOp{
	"LoadI32":           {kind: EvLoad, idx: 1},
	"LoadF32":           {kind: EvLoad, idx: 1},
	"StoreI32":          {kind: EvStore, idx: 1},
	"StoreF32":          {kind: EvStore, idx: 1},
	"LoadI32Replicated": {kind: EvLoad, idx: 2, grouped: true},
	"LoadI32Grouped":    {kind: EvLoad, idx: 1, grouped: true},
	"Row":               {kind: EvLoad, idx: 1, grouped: true},
	"LoadF32Grouped":    {kind: EvLoad, idx: 1, grouped: true},
	"StoreI32Grouped":   {kind: EvStore, idx: 1, grouped: true},
	"StoreF32Grouped":   {kind: EvStore, idx: 1, grouped: true},
	"LoadSharedI32":     {kind: EvLoad, idx: 1, shared: true},
	"StoreSharedI32":    {kind: EvStore, idx: 1, shared: true},

	"AtomicAddI32":       {kind: EvAtomic, idx: 1},
	"AtomicMinI32":       {kind: EvAtomic, idx: 1},
	"AtomicCASI32":       {kind: EvAtomic, idx: 1},
	"AtomicOrI32":        {kind: EvAtomic, idx: 1},
	"AtomicAddF32":       {kind: EvAtomic, idx: 1},
	"AtomicAddGrouped":   {kind: EvAtomic, idx: 1, grouped: true},
	"AtomicAddSharedI32": {kind: EvAtomic, idx: 1, shared: true},
}

// bindings is the file-wide closure-binding table: "s.body" (and fallback
// "#body") or "name" -> bound function literal. Last binding wins.
type bindings struct {
	byKey map[string]*ast.FuncLit
	// decls maps top-level function names to their declarations.
	decls map[string]*ast.FuncDecl
}

// collectBindings walks the file once gathering closure bindings and
// top-level function declarations.
func collectBindings(file *ast.File) *bindings {
	b := &bindings{byKey: make(map[string]*ast.FuncLit), decls: make(map[string]*ast.FuncDecl)}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			b.decls[fd.Name.Name] = fd
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				fl, ok := n.Rhs[i].(*ast.FuncLit)
				if !ok {
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					b.byKey[l.Name] = fl
				case *ast.SelectorExpr:
					b.byKey[exprText(l)] = fl
					b.byKey["#"+l.Sel.Name] = fl
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if fl, ok := v.(*ast.FuncLit); ok && i < len(n.Names) {
					b.byKey[n.Names[i].Name] = fl
				}
			}
		case *ast.KeyValueExpr:
			// struct literal fields: Field: func(...){...}
			if fl, ok := n.Value.(*ast.FuncLit); ok {
				if id, ok := n.Key.(*ast.Ident); ok {
					b.byKey["#"+id.Name] = fl
				}
			}
		}
		return true
	})
	return b
}

// resolveFn maps a function-valued argument to a literal: a FuncLit
// directly, or an Ident/Selector through the binding table. Returns nil for
// nil literals ("nil" else branches) and unresolvable expressions.
func (b *bindings) resolveFn(e ast.Expr) *ast.FuncLit {
	switch e := e.(type) {
	case *ast.FuncLit:
		return e
	case *ast.Ident:
		if e.Name == "nil" {
			return nil
		}
		return b.byKey[e.Name]
	case *ast.SelectorExpr:
		if fl, ok := b.byKey[exprText(e)]; ok {
			return fl
		}
		return b.byKey["#"+e.Sel.Name]
	}
	return nil
}

// cfgBuilder holds the state of one kernel CFG construction.
type cfgBuilder struct {
	fset  *token.FileSet
	binds *bindings
	cfg   *CFG
	cur   *Block
	// guards is the construction-time guard stack.
	guards []*Guard
	// active guards recursion during inlining (FuncLits and FuncDecls).
	active map[ast.Node]bool
	depth  int
	// loops tracks Go loop nesting for break/continue edges.
	loops []goLoop
}

type goLoop struct {
	header, exit *Block
	label        string
}

// BuildCFG constructs the CFG rooted at a top-level function declaration.
// binds must come from collectBindings on the same file.
func BuildCFG(fset *token.FileSet, fd *ast.FuncDecl, binds *bindings) *CFG {
	b := &cfgBuilder{
		fset:   fset,
		binds:  binds,
		cfg:    &CFG{Name: fd.Name.Name, Pos: fd.Pos()},
		active: map[ast.Node]bool{fd: true},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{ID: -1}
	b.cur = b.cfg.Entry
	b.walkStmt(fd.Body)
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.ID = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	bl := &Block{ID: len(b.cfg.Blocks)}
	bl.Guards = append([]*Guard(nil), b.guards...)
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// --- statement walk ---------------------------------------------------------

func (b *cfgBuilder) walkStmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.walkStmt(st)
		}
	case *ast.ExprStmt:
		b.walkExpr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			b.walkExpr(r)
		}
		for _, l := range s.Lhs {
			b.walkExpr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						b.walkExpr(v)
					}
				}
			}
		}
	case *ast.IfStmt:
		b.walkStmt(s.Init)
		b.walkExpr(s.Cond)
		g := &Guard{Kind: GuardGoIf, Pos: s.Pos(), Desc: "if", Cond: s.Cond}
		b.cfg.Guards = append(b.cfg.Guards, g)
		branch := b.cur
		branch.BranchGuard = g
		join := &Block{}
		b.guards = append(b.guards, g)
		// then
		thenEntry := b.newBlock()
		b.edge(branch, thenEntry)
		b.cur = thenEntry
		b.walkStmt(s.Body)
		thenEnd := b.cur
		// else
		var elseEnd *Block
		if s.Else != nil {
			elseEntry := b.newBlock()
			b.edge(branch, elseEntry)
			b.cur = elseEntry
			b.walkStmt(s.Else)
			elseEnd = b.cur
		}
		b.guards = b.guards[:len(b.guards)-1]
		j := b.newBlockAs(join)
		b.edge(thenEnd, j)
		if elseEnd != nil {
			b.edge(elseEnd, j)
		} else {
			b.edge(branch, j)
		}
		b.cur = j
	case *ast.ForStmt:
		b.walkStmt(s.Init)
		b.goLoopBody(s.Cond, "for", func() {
			b.walkStmt(s.Body)
			b.walkStmt(s.Post)
		}, labelOf(s))
	case *ast.RangeStmt:
		b.walkExpr(s.X)
		b.goLoopBody(nil, "range", func() { b.walkStmt(s.Body) }, labelOf(s))
	case *ast.SwitchStmt:
		b.walkStmt(s.Init)
		b.walkExpr(s.Tag)
		b.switchBody(s.Pos(), s.Tag, bodyLists(s.Body))
	case *ast.TypeSwitchStmt:
		b.walkStmt(s.Init)
		b.switchBody(s.Pos(), nil, bodyLists(s.Body))
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.walkExpr(r)
		}
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.walkStmt(s.Stmt)
	case *ast.GoStmt:
		b.walkExpr(s.Call)
	case *ast.DeferStmt:
		b.walkExpr(s.Call)
	case *ast.SendStmt:
		b.walkExpr(s.Chan)
		b.walkExpr(s.Value)
	case *ast.IncDecStmt:
		b.walkExpr(s.X)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, st := range cc.Body {
					b.walkStmt(st)
				}
			}
		}
	}
}

// newBlockAs registers a pre-allocated block (used for join blocks created
// before their guard scope closes, so they carry the outer guard stack).
func (b *cfgBuilder) newBlockAs(bl *Block) *Block {
	bl.ID = len(b.cfg.Blocks)
	bl.Guards = append([]*Guard(nil), b.guards...)
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

func labelOf(s ast.Stmt) string { return "" } // labels resolved approximately

// goLoopBody builds header -> body -> header / header -> exit for a Go loop.
func (b *cfgBuilder) goLoopBody(cond ast.Expr, desc string, body func(), label string) {
	g := &Guard{Kind: GuardGoFor, Pos: b.posOr(cond), Desc: desc, Cond: cond, Loop: true}
	b.cfg.Guards = append(b.cfg.Guards, g)
	header := b.newBlock()
	b.edge(b.cur, header)
	header.BranchGuard = g
	if cond != nil {
		b.cur = header
		b.walkExpr(cond)
	}
	exit := &Block{}
	b.loops = append(b.loops, goLoop{header: header, exit: exit, label: label})
	b.guards = append(b.guards, g)
	bodyEntry := b.newBlock()
	b.edge(header, bodyEntry)
	b.cur = bodyEntry
	body()
	b.edge(b.cur, header)
	b.guards = b.guards[:len(b.guards)-1]
	b.loops = b.loops[:len(b.loops)-1]
	e := b.newBlockAs(exit)
	b.edge(header, e)
	b.cur = e
}

func (b *cfgBuilder) posOr(e ast.Expr) token.Pos {
	if e != nil {
		return e.Pos()
	}
	return token.NoPos
}

func bodyLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func (b *cfgBuilder) switchBody(pos token.Pos, cond ast.Expr, cases [][]ast.Stmt) {
	g := &Guard{Kind: GuardGoIf, Pos: pos, Desc: "switch", Cond: cond}
	b.cfg.Guards = append(b.cfg.Guards, g)
	branch := b.cur
	branch.BranchGuard = g
	join := &Block{}
	b.guards = append(b.guards, g)
	for _, stmts := range cases {
		entry := b.newBlock()
		b.edge(branch, entry)
		b.cur = entry
		for _, st := range stmts {
			b.walkStmt(st)
		}
		b.edge(b.cur, join)
	}
	b.guards = b.guards[:len(b.guards)-1]
	j := b.newBlockAs(join)
	b.edge(branch, j) // default/no-match path
	b.cur = j
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	if len(b.loops) == 0 {
		return
	}
	top := b.loops[len(b.loops)-1]
	switch s.Tok {
	case token.BREAK:
		b.edge(b.cur, top.exit)
		b.cur = b.newBlock()
	case token.CONTINUE:
		b.edge(b.cur, top.header)
		b.cur = b.newBlock()
	}
}

// --- expression walk --------------------------------------------------------

// walkExpr descends into an expression, handling warp-construct calls
// structurally and recording primitive events.
func (b *cfgBuilder) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		b.walkCall(e)
	case *ast.FuncLit:
		// A bare kernel literal in expression position (typically `return
		// func(w *WarpCtx) {...}` or a `func(t *Tasks)` driver body) IS
		// kernel code: inline it. Other literals are bindings — they
		// execute at their resolved call sites.
		if isKernelishFuncType(e.Type) {
			b.inline(e)
		}
	case *ast.ParenExpr:
		b.walkExpr(e.X)
	case *ast.UnaryExpr:
		b.walkExpr(e.X)
	case *ast.BinaryExpr:
		b.walkExpr(e.X)
		b.walkExpr(e.Y)
	case *ast.IndexExpr:
		b.walkExpr(e.X)
		b.walkExpr(e.Index)
	case *ast.SliceExpr:
		b.walkExpr(e.X)
	case *ast.SelectorExpr:
		b.walkExpr(e.X)
	case *ast.StarExpr:
		b.walkExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			b.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		b.walkExpr(e.Value)
	case *ast.TypeAssertExpr:
		b.walkExpr(e.X)
	}
}

// walkCall dispatches one call expression: construct, primitive event,
// resolvable closure/function call, or opaque.
func (b *cfgBuilder) walkCall(call *ast.CallExpr) {
	name, recv := calleeName(call)

	// Known structured construct?
	if c, ok := constructs[name]; ok && b.looksLikeConstruct(call, c) {
		b.walkConstruct(call, name, recv, c)
		return
	}

	// Memory/atomic primitive?
	if m, ok := memOps[name]; ok && m.idx < len(call.Args) {
		for _, a := range call.Args {
			b.walkExpr(a)
		}
		b.cur.Events = append(b.cur.Events, Event{
			Kind: m.kind, Call: call, Name: name, Recv: recv,
			Idx: call.Args[m.idx], Grouped: m.grouped, Shared: m.shared,
		})
		return
	}

	// Barrier?
	if name == "SyncThreads" || name == "Barrier" {
		b.cur.Events = append(b.cur.Events, Event{Kind: EvBarrier, Call: call, Name: name, Recv: recv})
		return
	}

	// Walk arguments first (they evaluate before the call).
	for _, a := range call.Args {
		b.walkExpr(a)
	}

	// Direct call of a bound closure: s.expand(), relax(...)?
	if fl := b.binds.resolveFn(call.Fun); fl != nil {
		b.inline(fl)
		return
	}
	// Same-file top-level kernel-context function: bfsScratchFor(w).
	if id, ok := call.Fun.(*ast.Ident); ok {
		if fd, ok := b.binds.decls[id.Name]; ok && isKernelishFuncType(fd.Type) {
			b.inlineDecl(fd)
			return
		}
	}
	b.walkExpr(call.Fun)
}

// looksLikeConstruct sanity-checks arity so an unrelated method that happens
// to share a construct name is not misparsed.
func (b *cfgBuilder) looksLikeConstruct(call *ast.CallExpr, c construct) bool {
	max := c.pred
	for _, i := range c.bodies {
		if i > max {
			max = i
		}
	}
	for _, i := range c.bounds {
		if i > max {
			max = i
		}
	}
	return max < len(call.Args)
}

// walkConstruct builds the CFG region for one structured warp construct.
func (b *cfgBuilder) walkConstruct(call *ast.CallExpr, name, recv string, c construct) {
	// Evaluate non-body arguments (bounds vectors, counters, ...).
	bodySet := make(map[int]bool, len(c.bodies))
	for _, i := range c.bodies {
		bodySet[i] = true
	}
	for i, a := range call.Args {
		if !bodySet[i] && i != c.pred {
			b.walkExpr(a)
		}
	}

	// The predicate closure executes per lane under the current mask.
	var cond ast.Node
	if c.pred >= 0 && c.pred < len(call.Args) {
		if fl := b.binds.resolveFn(call.Args[c.pred]); fl != nil {
			cond = fl
			b.inlineStraight(fl)
		} else {
			cond = call.Args[c.pred]
		}
	}

	var bodies []*ast.FuncLit
	for _, i := range c.bodies {
		if i < len(call.Args) {
			bodies = append(bodies, b.binds.resolveFn(call.Args[i]))
		} else {
			bodies = append(bodies, nil)
		}
	}

	if !c.guarded {
		// Straight-line executor: inline bodies under the current guards.
		for _, fl := range bodies {
			if fl != nil {
				b.inline(fl)
			}
		}
		return
	}

	g := &Guard{
		Kind: c.kind, Pos: call.Pos(), Desc: recvDot(recv, name),
		Cond: cond, Loop: c.loop, Rows: c.rows,
	}
	for _, i := range c.bounds {
		if i < len(call.Args) {
			g.Bounds = append(g.Bounds, call.Args[i])
		}
	}
	if c.kind == GuardDriver {
		g.Class = PredData // round counts vary per warp by construction
	}
	b.cfg.Guards = append(b.cfg.Guards, g)

	branch := b.cur
	branch.BranchGuard = g
	join := &Block{}
	b.guards = append(b.guards, g)
	anyBody := false
	for _, fl := range bodies {
		if fl == nil {
			continue
		}
		anyBody = true
		entry := b.newBlock()
		b.edge(branch, entry)
		b.cur = entry
		if c.rows {
			// Edges loads the neighbor col[j] before the body; j is the
			// body's first parameter.
			var j ast.Expr
			if ps := fl.Type.Params.List; len(ps) > 0 && len(ps[0].Names) > 0 {
				j = ps[0].Names[0]
			}
			entry.Events = append(entry.Events, Event{Kind: EvLoad, Call: call, Name: name, Recv: recv, Idx: j})
		}
		b.inline(fl)
		if c.loop {
			b.edge(b.cur, entry) // back edge: body may repeat
		}
		b.edge(b.cur, join)
	}
	b.guards = b.guards[:len(b.guards)-1]
	j := b.newBlockAs(join)
	// The skip path: no lane passes / no task this round.
	b.edge(branch, j)
	_ = anyBody
	b.cur = j
}

// inline walks a function literal's body into the current position.
func (b *cfgBuilder) inline(fl *ast.FuncLit) {
	if b.active[fl] || b.depth >= maxInlineDepth {
		if b.depth >= maxInlineDepth {
			b.cfg.Truncated = true
		}
		return
	}
	b.active[fl] = true
	b.depth++
	b.walkStmt(fl.Body)
	b.depth--
	delete(b.active, fl)
}

// inlineStraight walks a predicate closure: its body executes (per lane)
// but contributes no control structure of its own.
func (b *cfgBuilder) inlineStraight(fl *ast.FuncLit) { b.inline(fl) }

// inlineDecl inlines a same-file top-level function's body.
func (b *cfgBuilder) inlineDecl(fd *ast.FuncDecl) {
	if b.active[fd] || b.depth >= maxInlineDepth {
		if b.depth >= maxInlineDepth {
			b.cfg.Truncated = true
		}
		return
	}
	b.active[fd] = true
	b.depth++
	b.walkStmt(fd.Body)
	b.depth--
	delete(b.active, fd)
}

// isKernelishFuncType reports whether the signature marks kernel-context
// code: it takes a *WarpCtx (the PR 4 definition) or a *vwarp.Tasks (driver
// body closures — they only ever execute inside a launched kernel).
func isKernelishFuncType(ft *ast.FuncType) bool {
	if isKernelFuncType(ft) {
		return true
	}
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		star, ok := f.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		switch t := star.X.(type) {
		case *ast.Ident:
			if t.Name == "Tasks" {
				return true
			}
		case *ast.SelectorExpr:
			if t.Sel.Name == "Tasks" {
				return true
			}
		}
	}
	return false
}

// calleeName splits a call into (method name, receiver text). Plain calls
// return ("name", "").
func calleeName(call *ast.CallExpr) (string, string) {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name, exprText(f.X)
	case *ast.Ident:
		return f.Name, ""
	}
	return "", ""
}

func recvDot(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}

// --- dominance --------------------------------------------------------------

// Dominators computes the immediate-dominator relation of the CFG with the
// classic iterative dataflow (Cooper/Harvey/Kennedy shape, on block IDs).
// idom[Entry] = Entry; unreachable blocks get idom -1.
func (c *CFG) Dominators() []int {
	return dominators(c.Blocks, c.Entry, func(b *Block) []*Block { return b.Succs })
}

// PostDominators computes immediate post-dominators over the reversed CFG,
// rooted at Exit.
func (c *CFG) PostDominators() []int {
	preds := make([][]*Block, len(c.Blocks))
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s.ID] = append(preds[s.ID], b)
		}
	}
	return dominators(c.Blocks, c.Exit, func(b *Block) []*Block { return preds[b.ID] })
}

func dominators(blocks []*Block, root *Block, succs func(*Block) []*Block) []int {
	n := len(blocks)
	// Reverse postorder from root over succs.
	order := make([]*Block, 0, n)
	seen := make([]bool, n)
	var dfs func(*Block)
	var stack []*Block
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range succs(b) {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		stack = append(stack, b)
	}
	dfs(root)
	for i := len(stack) - 1; i >= 0; i-- {
		order = append(order, stack[i])
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b.ID] = i
	}
	preds := make([][]*Block, n)
	for _, b := range blocks {
		if !seen[b.ID] {
			continue
		}
		for _, s := range succs(b) {
			preds[s.ID] = append(preds[s.ID], b)
		}
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root.ID] = root.ID
	intersect := func(a, bb int) int {
		for a != bb {
			for rpoNum[a] > rpoNum[bb] {
				a = idom[a]
			}
			for rpoNum[bb] > rpoNum[a] {
				bb = idom[bb]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == root {
				continue
			}
			newIdom := -1
			for _, p := range preds[b.ID] {
				if idom[p.ID] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p.ID
				} else {
					newIdom = intersect(newIdom, p.ID)
				}
			}
			if newIdom != -1 && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// ControlDeps returns, per block, the set of branch blocks the block is
// (transitively) control-dependent on, computed from the post-dominator
// relation: b is directly control-dependent on branch d when d has a
// successor from which b post-dominates the path but b does not post-
// dominate d itself (Ferrante-Ottenstein-Warren via post-dominance walk).
// The transitive closure folds in the dependences of the controlling
// branches, which for this builder's structured CFGs reproduces the
// construction-time guard stack — the barrier analyzer consumes this, not
// the stack, so the dominance machinery is what decides.
func (c *CFG) ControlDeps() [][]*Block {
	n := len(c.Blocks)
	pidom := c.PostDominators()
	direct := make([][]*Block, n)
	// postdominates reports whether a post-dominates b (walk b's pidom chain).
	postdominates := func(a, bID int) bool {
		for x := bID; ; {
			if x == a {
				return true
			}
			next := pidom[x]
			if next == -1 || next == x {
				return x == a
			}
			x = next
		}
	}
	for _, d := range c.Blocks {
		if len(d.Succs) < 2 {
			continue
		}
		for _, s := range d.Succs {
			// Walk the post-dominator chain from s up to (exclusive) d's
			// post-dominator: every node on it is control-dependent on d.
			stop := pidom[d.ID]
			for x := s.ID; x != -1 && x != stop; {
				if x != d.ID {
					direct[x] = append(direct[x], d)
				}
				next := pidom[x]
				if next == x {
					break
				}
				x = next
			}
		}
	}
	_ = postdominates
	// Transitive closure (small graphs; fixpoint is fine).
	out := make([][]*Block, n)
	for i := range out {
		seen := map[int]bool{}
		var add func(int)
		add = func(id int) {
			for _, d := range direct[id] {
				if !seen[d.ID] {
					seen[d.ID] = true
					out[i] = append(out[i], d)
					add(d.ID)
				}
			}
		}
		add(i)
	}
	return out
}
