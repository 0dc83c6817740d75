// taint.go implements the lane-taint + stride-class dataflow the warp
// analyzers (warp.go) consume.
//
// The question the analysis answers, per value in a kernel file, is: "does
// this value differ across the lanes of a warp, and if so, how?" The answer
// is a two-axis class:
//
//   - Stride: uniform < unit < strided < irregular. Uniform values are
//     identical on every lane (host scalars, ConstI32, Ballot results).
//     Unit values are affine in the lane id with step 1 (LaneIDs,
//     GlobalThreadIDs, a SIMDRange or Edges position vector): consecutive
//     lanes touch consecutive addresses — the coalesced case. Strided
//     values are lane-derived with a non-unit step (lane*K, lane+lane).
//     Irregular values came from memory (per-lane loads, atomics' old
//     values, reductions): the paper's uncoalesced/divergent case.
//   - Data: whether the value was derived from loaded data (as opposed to
//     pure lane-id arithmetic). A branch on a lane-id-only value is the
//     bounded structural divergence of a leader idiom; a branch on data is
//     the unbounded divergence the paper's outlier deferral targets.
//
// The engine is deliberately coarse: one flat map keyed by identifier /
// "recv.field" text across the whole file, iterated to a fixpoint with a
// monotone join. There is no go/types, no SSA, no scoping — two closures
// that both name a local `i` share its class. That coarseness over-taints
// in the worst case and never under-taints lane-derived values that stay
// within the idioms this codebase uses; the TestWarplintPredictions harness
// pins the resulting verdicts against measured simulator counters, which is
// the real check on the approximation.
package kernelcheck

import (
	"go/ast"
	"go/token"
)

// Stride is the per-lane address/value pattern lattice: uniform < unit <
// strided < irregular.
type Stride int

const (
	StrideUniform Stride = iota
	StrideUnit
	StrideStrided
	StrideIrregular
)

func (s Stride) String() string {
	switch s {
	case StrideUniform:
		return "uniform"
	case StrideUnit:
		return "unit"
	case StrideStrided:
		return "strided"
	default:
		return "irregular"
	}
}

// class is one value's taint classification.
type class struct {
	stride Stride
	// data marks values derived from loaded memory (vs lane-id arithmetic).
	data bool
}

func (c class) join(o class) class {
	if o.stride > c.stride {
		c.stride = o.stride
	}
	c.data = c.data || o.data
	return c
}

var (
	clsUniform   = class{StrideUniform, false}
	clsLane      = class{StrideUnit, false}
	clsIrregular = class{StrideIrregular, true}
)

// uniformCalls return warp-uniform values regardless of arguments.
var uniformCalls = map[string]bool{
	"ConstI32": true, "VecI32": true, "VecF32": true,
	"BroadcastI32": true, "Ballot": true,
	"Width": true, "BlockDim": true, "GridThreads": true, "LaneActive": true,
	"BlockID": true, "SMID": true, "GlobalWarpID": true, "WarpInBlock": true,
	"KernelScratch": true, "SharedI32": true, "Valid": true,
	"len": true, "cap": true, "int": true, "int32": true, "int64": true,
	"float32": true, "float64": true, "min": true, "max": true,
}

// laneCalls return lane-id-derived (unit-stride, non-data) values.
var laneCalls = map[string]bool{
	"LaneIDs": true, "GlobalThreadIDs": true,
	"Group": true, "LaneInGroup": true,
}

// dataCalls return memory-derived values.
var dataCalls = map[string]bool{
	"CopyI32": true,
}

// outParam describes a primitive that writes a result through an argument
// or into fields of its receiver.
type outParam struct {
	// idx is the index-vector argument governing the result's class, -1
	// when the output is unconditionally irregular data.
	idx int
	// out is the output argument position, -1 when there is none.
	out int
	// fields are receiver fields the primitive writes (Row's Start, End).
	fields []string
}

var outParams = map[string]outParam{
	"LoadI32":           {idx: 1, out: 2},
	"LoadF32":           {idx: 1, out: 2},
	"LoadI32Replicated": {idx: 2, out: 3},
	"LoadI32Grouped":    {idx: 1, out: 2},
	"Row":               {idx: 1, out: -1, fields: []string{"Start", "End"}},
	"LoadF32Grouped":    {idx: 1, out: 2},
	"LoadSharedI32":     {idx: 1, out: 2},

	"AtomicAddI32":       {idx: -1, out: 3},
	"AtomicMinI32":       {idx: -1, out: 3},
	"AtomicOrI32":        {idx: -1, out: 3},
	"AtomicAddF32":       {idx: -1, out: 3},
	"AtomicCASI32":       {idx: -1, out: 4},
	"AtomicAddGrouped":   {idx: -1, out: 3},
	"AtomicAddSharedI32": {idx: -1, out: 3},

	"GroupReduceAddI32": {idx: -1, out: 2},
	"GroupReduceOrI32":  {idx: -1, out: 2},
	"GroupReduceAddF32": {idx: -1, out: 2},
	"ReduceAddI32":      {idx: -1, out: 1},
	"ReduceAddF32":      {idx: -1, out: 1},
}

// laneClosureMethods are the calls whose closure arguments receive lane or
// group indices / position vectors: their int and []int32 parameters are
// seeded as unit-stride lane values.
var laneClosureMethods = map[string]bool{
	"If": true, "IfGrouped": true, "While": true, "Ballot": true,
	"Apply": true, "ApplyReplicated": true,
	"Mask": true, "SISD": true, "SIMDRange": true, "Edges": true, "GroupLoop": true,
	"StoreI32Grouped": true, "StoreF32Grouped": true, "AtomicAddGrouped": true,
}

// Taint is the fixpoint result for one file.
type Taint struct {
	classes map[string]class
}

// ComputeTaint runs the file-wide taint fixpoint.
func ComputeTaint(file *ast.File) *Taint {
	t := &Taint{classes: make(map[string]class)}
	t.seed(file)
	// Monotone join over a finite key set terminates; the cap is a guard
	// against a transfer-function bug, not a correctness knob.
	for i := 0; i < 32; i++ {
		if !t.sweep(file) {
			break
		}
	}
	return t
}

// key renders an lvalue expression to its map key, "" if untrackable.
func taintKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ""
		}
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e)
	case *ast.IndexExpr:
		// Writing one element taints the whole vector.
		return taintKey(e.X)
	case *ast.ParenExpr:
		return taintKey(e.X)
	case *ast.StarExpr:
		return taintKey(e.X)
	}
	return ""
}

func (t *Taint) get(k string) class {
	if k == "" {
		return clsUniform
	}
	return t.classes[k]
}

// raise joins cls into key k, reporting whether anything changed.
func (t *Taint) raise(k string, cls class) bool {
	if k == "" {
		return false
	}
	old := t.classes[k]
	nw := old.join(cls)
	if nw != old {
		t.classes[k] = nw
		return true
	}
	return false
}

// seed marks lane-closure parameters and Tasks fields. An Edges body's
// second parameter is the loaded neighbor vector: irregular data.
func (t *Taint) seed(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := calleeName(call)
		if !laneClosureMethods[name] && !(constructs[name].guarded && constructs[name].kind == GuardDriver) {
			return true
		}
		for _, a := range call.Args {
			fl, ok := a.(*ast.FuncLit)
			if !ok || fl.Type.Params == nil {
				continue
			}
			pos := 0
			for _, f := range fl.Type.Params.List {
				for _, nm := range f.Names {
					switch tp := f.Type.(type) {
					case *ast.Ident:
						if tp.Name == "int" {
							t.raise(nm.Name, clsLane)
						}
					case *ast.ArrayType:
						// SIMDRange/Edges/GroupLoop position vectors, and
						// Edges' neighbors.
						cls := clsLane
						if name == "Edges" && pos == 1 {
							cls = clsIrregular
						}
						t.raise(nm.Name, cls)
						_ = tp
					}
					pos++
				}
			}
		}
		return true
	})
}

// sweep applies every transfer function once; reports whether the map grew.
func (t *Taint) sweep(file *ast.File) bool {
	changed := false
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				cls := t.Classify(rhs)
				if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
					// +=, -=, ... : join with the current lhs class too.
					cls = cls.join(t.get(taintKey(lhs)))
				}
				if t.raise(taintKey(lhs), cls) {
					changed = true
				}
			}
		case *ast.RangeStmt:
			// for i, v := range x: values take x's class.
			cls := t.Classify(n.X)
			if n.Value != nil && t.raise(taintKey(n.Value), cls) {
				changed = true
			}
		case *ast.CallExpr:
			name, recv := calleeName(n)
			op, ok := outParams[name]
			if !ok || op.out >= len(n.Args) {
				return true
			}
			outCls := clsIrregular
			if op.idx >= 0 && op.idx < len(n.Args) {
				if t.Classify(n.Args[op.idx]).stride == StrideUniform {
					// Every lane loads the same cell: the result is
					// warp-uniform (data origin notwithstanding).
					outCls = clsUniform
				}
			}
			if op.out >= 0 && t.raise(taintKey(n.Args[op.out]), outCls) {
				changed = true
			}
			for _, f := range op.fields {
				if t.raise(recv+"."+f, outCls) {
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// Classify returns the class of an expression under the current fixpoint
// state. Unknown identifiers are optimistically uniform: host scalars and
// buffers dominate kernel code, and lane-derived values are caught by the
// seeds and transfer functions above.
func (t *Taint) Classify(e ast.Expr) class {
	switch e := e.(type) {
	case nil:
		return clsUniform
	case *ast.Ident:
		return t.get(e.Name)
	case *ast.BasicLit:
		return clsUniform
	case *ast.SelectorExpr:
		if e.Sel.Name == "Task" {
			// Tasks.Task: per-group task ids — lane-derived by
			// construction; static distribution hands out consecutive ids.
			return t.get(exprText(e)).join(clsLane)
		}
		return t.get(exprText(e))
	case *ast.ParenExpr:
		return t.Classify(e.X)
	case *ast.UnaryExpr:
		return t.Classify(e.X)
	case *ast.StarExpr:
		return t.Classify(e.X)
	case *ast.IndexExpr:
		// A per-lane view of a vector has the vector's class; an index
		// that is itself tainted contributes too (host-slice gather).
		return t.Classify(e.X).join(t.Classify(e.Index))
	case *ast.SliceExpr:
		return t.Classify(e.X)
	case *ast.BinaryExpr:
		x, y := t.Classify(e.X), t.Classify(e.Y)
		switch e.Op {
		case token.ADD, token.SUB:
			// Address arithmetic: uniform+unit stays unit; unit+unit is a
			// step-2 pattern; anything irregular stays irregular.
			c := class{data: x.data || y.data}
			switch {
			case x.stride == StrideIrregular || y.stride == StrideIrregular:
				c.stride = StrideIrregular
			case x.stride >= StrideUnit && y.stride >= StrideUnit:
				c.stride = StrideStrided
			case x.stride > y.stride:
				c.stride = x.stride
			default:
				c.stride = y.stride
			}
			return c
		case token.MUL, token.QUO, token.REM, token.SHL, token.SHR, token.AND_NOT, token.AND, token.OR, token.XOR:
			// Scaling a lane value breaks unit stride.
			c := x.join(y)
			if c.stride == StrideUnit {
				c.stride = StrideStrided
			}
			return c
		default:
			// Comparisons and logical ops: the stride of a bool is
			// meaningless, but lane/data dependence propagates.
			return x.join(y)
		}
	case *ast.CallExpr:
		name, recvTxt := calleeName(e)
		switch {
		case uniformCalls[name]:
			return clsUniform
		case laneCalls[name]:
			return clsLane
		case dataCalls[name]:
			return clsIrregular
		case name == "make" || name == "new" || name == "append":
			c := clsUniform
			for i, a := range e.Args {
				if name == "make" && i == 0 {
					continue // the type argument
				}
				c = c.join(t.Classify(a))
			}
			return c
		default:
			// Unknown call: the result is no better than its inputs.
			c := clsUniform
			_ = recvTxt
			for _, a := range e.Args {
				c = c.join(t.Classify(a))
			}
			return c
		}
	case *ast.FuncLit:
		return clsUniform
	case *ast.CompositeLit:
		c := clsUniform
		for _, el := range e.Elts {
			c = c.join(t.Classify(el))
		}
		return c
	case *ast.TypeAssertExpr:
		return t.Classify(e.X)
	}
	return clsUniform
}

// ClassifyPred classifies a guard condition — a predicate closure (the
// join of its return expressions) or a plain expression.
func (t *Taint) ClassifyPred(cond ast.Node) PredClass {
	if cond == nil {
		return PredUniform
	}
	c := clsUniform
	switch cond := cond.(type) {
	case *ast.FuncLit:
		ast.Inspect(cond.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(cond) {
				return false
			}
			if r, ok := n.(*ast.ReturnStmt); ok {
				for _, e := range r.Results {
					c = c.join(t.Classify(e))
				}
			}
			return true
		})
	case ast.Expr:
		c = t.Classify(cond)
	}
	return predOf(c)
}

// ClassifyGuard resolves a guard's Class: predicate class for predicated
// constructs, bound class for counted loops (a loop whose trip count is
// lane/data-dependent runs different counts per lane — divergence), and
// PredData for drivers and Edges loops.
func (t *Taint) ClassifyGuard(g *Guard) PredClass {
	if g.Kind == GuardDriver || g.Rows {
		return PredData
	}
	cls := t.ClassifyPred(g.Cond)
	for _, b := range g.Bounds {
		p := predOf(t.Classify(b))
		if p > cls {
			cls = p
		}
	}
	return cls
}

func predOf(c class) PredClass {
	switch {
	case c.data:
		return PredData
	case c.stride > StrideUniform:
		return PredLaneID
	default:
		return PredUniform
	}
}

// ClassifyIdx returns the stride class of a memory-op index vector.
func (t *Taint) ClassifyIdx(e ast.Expr) Stride {
	return t.Classify(e).stride
}
