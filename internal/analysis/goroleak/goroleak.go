// Package goroleak requires every go statement in the scoped packages
// to show a provable join or cancel path, and flags timer churn in
// loops.
//
// A spawned goroutine is accepted when its body (the function literal,
// or the resolved same-package callee, closures included) contains at
// least one lifetime signal:
//
//   - sync.WaitGroup.Done / Wait — a join;
//   - any channel operation (send, receive, close, select) — the
//     goroutine is wired to something that can observe or release it;
//   - <-ctx.Done() via context.Context.Done — a cancel path;
//   - context.WithTimeout / WithDeadline / WithCancel — the goroutine
//     bounds its own lifetime.
//
// Anything else is fire-and-forget: nothing can wait for it, stop it,
// or even learn it is stuck — the serve.Close drain and the gateway
// health loop both show how cheap the signal is to provide. Goroutines
// whose lifetime is guaranteed by an external mechanism the analyzer
// cannot see (a listener whose Close terminates Serve) carry a
// //tsvlint:ignore goroleak annotation with that justification.
//
// Separately, time.After inside a for/range loop allocates a timer per
// iteration that is not collected until it fires — a slow leak on hot
// loops; hoist a time.NewTimer (serve.admit shows the shape).
//
// Test files are exempt.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tsvstress/internal/analysis"
)

// Config scopes the analyzer to package-path suffixes.
type Config struct {
	ScopeSuffixes []string
}

// NewAnalyzer builds a goroleak analyzer for the given scope. It is a
// package analyzer: goroutine bodies and their same-package callees
// are visible per package, so vettool mode loses nothing.
func NewAnalyzer(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "goroleak",
		Doc:  "go statements in the serving tiers must have a provable join or cancel path; no time.After in loops",
		Run: func(pass *analysis.Pass) error {
			return run(cfg, pass)
		},
	}
}

// Analyzer is goroleak scoped to the serving, gateway, aging and
// resilience tiers.
var Analyzer = NewAnalyzer(Config{
	ScopeSuffixes: []string{"internal/serve", "internal/aging", "internal/resilience", "internal/gateway"},
})

func run(cfg Config, pass *analysis.Pass) error {
	base, _, _ := strings.Cut(pass.Pkg.Path(), " [")
	scoped := false
	for _, s := range cfg.ScopeSuffixes {
		if strings.HasSuffix(base, s) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}

	// Same-package function bodies, for resolving `go s.loop()`.
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = fd
				}
			}
		}
	}

	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoStmt(pass, bodies, g)
			}
			return true
		})
		checkTimerLoops(pass, file)
	}
	return nil
}

func checkGoStmt(pass *analysis.Pass, bodies map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if callee := analysis.StaticCallee(pass.TypesInfo, g.Call); callee != nil {
			if decl, ok := bodies[callee]; ok {
				body = decl.Body
			}
		}
	}
	if body == nil {
		// Dynamic or out-of-package target: nothing provable here.
		pass.Reportf(g.Pos(), "goroutine runs a function the analyzer cannot see into; spawn a local function with a join or cancel path, or annotate the external lifetime guarantee")
		return
	}
	if !hasLifetimeSignal(pass, bodies, body, make(map[*ast.BlockStmt]bool)) {
		pass.Reportf(g.Pos(), "goroutine has no join or cancel path (no WaitGroup, channel operation, ctx.Done, or bounded context in its body); it can outlive its spawner unobserved")
	}
}

// hasLifetimeSignal walks a goroutine body, descending into closures
// and same-package callees (memoized per body to cut cycles).
func hasLifetimeSignal(pass *analysis.Pass, bodies map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, seen map[*ast.BlockStmt]bool) bool {
	if seen[body] {
		return false
	}
	seen[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// for v := range ch — a receive loop that ends on close.
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin && fun.Name == "close" {
					found = true
					return false
				}
			}
			callee := analysis.StaticCallee(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if sig := lifetimeCall(callee); sig {
				found = true
				return false
			}
			if decl, ok := bodies[callee]; ok && decl.Body != nil {
				if hasLifetimeSignal(pass, bodies, decl.Body, seen) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// lifetimeCall recognizes calls that are lifetime signals by
// themselves: WaitGroup.Done/Wait, context.Context.Done, and the
// bounded-context constructors.
func lifetimeCall(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync":
		if fn.Name() == "Done" || fn.Name() == "Wait" {
			return recvNamed(fn) == "WaitGroup"
		}
	case "context":
		switch fn.Name() {
		case "Done":
			return true // context.Context.Done
		case "WithTimeout", "WithDeadline", "WithCancel":
			return true
		}
	}
	return false
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkTimerLoops flags time.After calls lexically inside a for or
// range statement.
func checkTimerLoops(pass *analysis.Pass, file *ast.File) {
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(loopBody(n), walk)
			loopDepth--
			return false
		case *ast.CallExpr:
			if loopDepth == 0 {
				return true
			}
			callee := analysis.StaticCallee(pass.TypesInfo, n)
			if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "time" && callee.Name() == "After" {
				pass.Reportf(n.Pos(), "time.After in a loop allocates a timer per iteration that lives until it fires; hoist a time.NewTimer and reuse it")
			}
		}
		return true
	}
	ast.Inspect(file, walk)
}

func loopBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return n
}
