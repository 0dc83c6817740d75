// Package kernelcheck statically checks kernel code for violations of the
// simulator's kernel discipline: kernels must be deterministic, barrier
// placement must be warp-uniform, and device buffers must be accessed
// through the WarpCtx primitives. It is shaped like golang.org/x/tools'
// go/analysis (Analyzer / Pass / Diagnostic) but is implemented on the
// standard library's go/ast alone, so the repo stays dependency-free; the
// cmd/kernelcheck driver stands in for `go vet -vettool`.
//
// Analysis is purely syntactic. "Kernel context" is any function or function
// literal with a parameter of type pointer-to-WarpCtx (any package
// qualifier); the analyzers look for hazard patterns inside those bodies.
// Findings are suppressed with a `//kernelcheck:ignore <rules>` comment on
// the same line or the line above (no rule list suppresses everything).
package kernelcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the familiar file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Rule)
}

// Analyzer is one named check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name is the rule identifier used in reports and ignore comments.
	Name string
	// Doc describes what the rule flags.
	Doc string
	// Run inspects pass.File and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's run over one file, mirroring go/analysis.Pass.
type Pass struct {
	Fset *token.FileSet
	File *ast.File

	rule  string
	diags *[]Diagnostic
	// shared caches the CFG/taint analysis across the analyzers of one
	// CheckFileWith run; built lazily on first use (the syntactic
	// analyzers never pay for it).
	shared **fileAnalysis
}

// analysis returns the file's CFG/taint analysis, building it on first use.
func (p *Pass) analysis() *fileAnalysis {
	if p.shared == nil {
		var fa *fileAnalysis
		p.shared = &fa
	}
	if *p.shared == nil {
		*p.shared = buildFileAnalysis(p.Fset, p.File)
	}
	return *p.shared
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// All is the default analyzer set, in reporting order.
var All = []*Analyzer{NondetermAnalyzer, BarrierAnalyzer, BufAliasAnalyzer, LoopCaptureAnalyzer}

// CheckFile runs every analyzer in All over a parsed file (which must have
// been parsed with parser.ParseComments for suppression to work) and returns
// the unsuppressed findings in source order.
func CheckFile(fset *token.FileSet, file *ast.File) []Diagnostic {
	return CheckFileWith(fset, file, All)
}

// CheckFileWith runs a specific analyzer set over a parsed file, sharing
// the CFG/taint infrastructure across analyzers.
func CheckFileWith(fset *token.FileSet, file *ast.File, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var shared *fileAnalysis
	for _, a := range analyzers {
		a.Run(&Pass{Fset: fset, File: file, rule: a.Name, diags: &diags, shared: &shared})
	}
	diags = filterSuppressed(fset, file, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags
}

// CheckSourceWith parses src (named filename for positions) and runs a
// specific analyzer set over it.
func CheckSourceWith(filename string, src []byte, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return CheckFileWith(fset, file, analyzers), nil
}

// ignoreDirective is the suppression comment prefix.
const ignoreDirective = "kernelcheck:ignore"

// filterSuppressed drops findings covered by a //kernelcheck:ignore comment
// on the finding's line or the line directly above it.
func filterSuppressed(fset *token.FileSet, file *ast.File, diags []Diagnostic) []Diagnostic {
	ignores := make(map[int][]string) // line -> rules ("*" = all)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, ignoreDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
			line := fset.Position(c.Pos()).Line
			if rest == "" {
				ignores[line] = append(ignores[line], "*")
				continue
			}
			for _, r := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' }) {
				ignores[line] = append(ignores[line], r)
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	matches := func(line int, rule string) bool {
		for _, r := range ignores[line] {
			if r == "*" || r == rule {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if matches(d.Pos.Line, d.Rule) || matches(d.Pos.Line-1, d.Rule) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// isWarpCtxPtr reports whether e is *WarpCtx under any package qualifier.
func isWarpCtxPtr(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return t.Name == "WarpCtx"
	case *ast.SelectorExpr:
		return t.Sel.Name == "WarpCtx"
	}
	return false
}

// isKernelFuncType reports whether the signature takes a *WarpCtx.
func isKernelFuncType(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if isWarpCtxPtr(f.Type) {
			return true
		}
	}
	return false
}

// kernelBodies returns the outermost kernel function bodies in the file:
// bodies of FuncDecls and FuncLits whose signature takes a *WarpCtx, with
// bodies nested inside another kernel body dropped (the outer walk covers
// them).
func kernelBodies(file *ast.File) []*ast.BlockStmt {
	var all []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && isKernelFuncType(fn.Type) {
				all = append(all, fn.Body)
			}
		case *ast.FuncLit:
			if isKernelFuncType(fn.Type) {
				all = append(all, fn.Body)
			}
		}
		return true
	})
	var out []*ast.BlockStmt
	for _, b := range all {
		nested := false
		for _, o := range all {
			if o != b && o.Pos() <= b.Pos() && b.End() <= o.End() {
				nested = true
				break
			}
		}
		if !nested {
			out = append(out, b)
		}
	}
	return out
}

// parentMap records each node's syntactic parent under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// usesIdent reports whether node references name as a plain identifier
// (selector fields x.name do not count).
func usesIdent(node ast.Node, name string) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			// Visit only the receiver; Sel is a field/method name, not a use.
			if usesIdent(sel.X, name) {
				found = true
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// exprText renders a short identifier-ish description of e for messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	default:
		return "expr"
	}
}
