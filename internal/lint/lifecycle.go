package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lifecycle.go — the goroutine-lifecycle analyzer. In the long-lived
// packages (Options.LifecyclePkgs: obs, serve, load, par) every `go`
// statement must lead to a goroutine that can stop: an unbounded
// background loop with no receive from a done/ctx channel and no
// return/break outlives its owner — exactly the leak class the
// History/Watchdog clean-stop tests pin dynamically. The analyzer also
// checks that every time.NewTicker/time.NewTimer is paired with a Stop
// (in the same function for locals, anywhere in the package for struct
// fields); an unstopped ticker keeps its runtime timer and everything
// it retains alive until process exit.

// analyzerLifecycle builds the goroutine-lifecycle analyzer.
func analyzerLifecycle() *Analyzer {
	return &Analyzer{Name: "goroutine-lifecycle", Run: runLifecycle}
}

func runLifecycle(m *Module, opts Options, report func(Finding)) {
	graph := BuildCallGraph(m)
	seenLoop := map[token.Pos]bool{} // a loop reachable from two go statements reports once
	for _, pkg := range m.Pkgs {
		if !inScope(pkg, opts.LifecyclePkgs) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGoroutine(m, pkg, graph, g, seenLoop, report)
				}
				return true
			})
			checkTickers(m, pkg, f, report)
		}
	}
}

// checkGoroutine scans the goroutine's entry body — a function literal
// or the resolved callee — plus every module function statically
// reachable from it for unstoppable background loops.
func checkGoroutine(m *Module, pkg *Package, graph *CallGraph, g *ast.GoStmt, seen map[token.Pos]bool, report func(Finding)) {
	launch := m.shortPos(g.Pos())

	type body struct {
		pkg  *Package
		node ast.Node
	}
	var bodies []body
	visited := map[*types.Func]bool{}
	var follow func(p *Package, fn *types.Func)
	follow = func(p *Package, fn *types.Func) {
		if fn == nil || visited[fn] {
			return
		}
		visited[fn] = true
		node := graph.Node(fn)
		if node == nil {
			return
		}
		bodies = append(bodies, body{node.Pkg, node.Decl.Body})
		for _, callee := range node.Callees {
			follow(node.Pkg, callee)
		}
	}

	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		bodies = append(bodies, body{pkg, lit.Body})
		// Module functions the literal calls are part of the goroutine.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeOf(pkg, call); fn != nil && fn.Pkg() != nil && isModulePath(fn.Pkg().Path(), m.Path) {
					follow(pkg, fn)
				}
			}
			return true
		})
	} else if fn := calleeOf(pkg, g.Call); fn != nil {
		follow(pkg, fn)
	}
	// An unresolvable target (go through a function value) cannot be
	// proven either way and is not followed.

	for _, b := range bodies {
		ast.Inspect(b.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // separate goroutine or deferred context
			case *ast.ForStmt:
				if n.Cond == nil && !seen[n.Pos()] && !loopHasStopPath(b.pkg, n.Body) {
					seen[n.Pos()] = true
					report(m.finding(CodeLifecycleLeak, n,
						"unbounded loop in goroutine launched at %s has no stop path (no done/ctx receive, return, or break) — the goroutine outlives its owner", launch))
				}
			case *ast.RangeStmt:
				if isTickerChan(b.pkg, n.X) && !seen[n.Pos()] && !loopHasStopPath(b.pkg, n.Body) {
					seen[n.Pos()] = true
					report(m.finding(CodeLifecycleLeak, n,
						"range over a ticker channel in goroutine launched at %s never ends (ticker channels are never closed) and has no return or break", launch))
				}
			}
			return true
		})
	}
}

// loopHasStopPath reports whether the loop body contains a way out:
// a return, a break (or goto), or a receive from a channel that is not
// a ticker/timer feed — done channels, ctx.Done(), and result channels
// all count; tick.C does not, because it fires forever.
func loopHasStopPath(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isTickerChan(pkg, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !isTickerChan(pkg, n.X) {
					found = true // terminates when the channel closes
				}
			}
		}
		return !found
	})
	return found
}

// isTickerChan reports whether the expression is the C field of a
// time.Ticker or time.Timer — the channels that fire forever and never
// close, so receiving from them is not a stop path.
func isTickerChan(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "time" {
		return false
	}
	return named.Obj().Name() == "Ticker" || named.Obj().Name() == "Timer"
}

// checkTickers verifies every time.NewTicker/NewTimer call in the file
// is paired with a Stop: locals must be stopped (or escape — returned
// or handed to another function, transferring ownership) within the
// enclosing function; struct fields must have a Stop call somewhere in
// the package.
func checkTickers(m *Module, pkg *Package, f *ast.File, report func(Finding)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		// Map each NewTicker/NewTimer call to the variable it lands in.
		consumed := map[*ast.CallExpr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					call := tickerCall(pkg, rhs)
					if call == nil {
						continue
					}
					consumed[call] = true
					checkTickerTarget(m, pkg, fd, n.Lhs[i], call, report)
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					call := tickerCall(pkg, v)
					if call == nil {
						continue
					}
					consumed[call] = true
					checkTickerTarget(m, pkg, fd, n.Names[i], call, report)
				}
			}
			return true
		})
		// Any NewTicker/NewTimer used as a bare expression (for range
		// time.NewTicker(d).C, a call argument) can never be stopped.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call := tickerCall(pkg, n); call != nil && !consumed[call] {
				report(m.finding(CodeLifecycleTicker, call,
					"%s is never assigned, so its Stop is unreachable — bind it and defer Stop", tickerCtor(pkg, call)))
				return false
			}
			return true
		})
	}
}

// tickerCall returns n as a time.NewTicker/NewTimer call, or nil.
func tickerCall(pkg *Package, n ast.Node) *ast.CallExpr {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return nil
	}
	if fn.Name() == "NewTicker" || fn.Name() == "NewTimer" {
		return call
	}
	return nil
}

func tickerCtor(pkg *Package, call *ast.CallExpr) string {
	if fn := calleeOf(pkg, call); fn != nil {
		return "time." + fn.Name()
	}
	return "time.NewTicker"
}

// checkTickerTarget verifies the variable receiving a ticker gets a
// Stop. Locals: a Stop call, or an escape (return, call argument,
// further assignment) inside the same declared function. Fields: a Stop
// on the same field object anywhere in the package.
func checkTickerTarget(m *Module, pkg *Package, fd *ast.FuncDecl, lhs ast.Expr, call *ast.CallExpr, report func(Finding)) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			report(m.finding(CodeLifecycleTicker,
				call, "%s is assigned to _, so its Stop is unreachable", tickerCtor(pkg, call)))
			return
		}
		obj := pkg.Info.Defs[lhs]
		if obj == nil {
			obj = pkg.Info.Uses[lhs]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		if !localTickerHandled(pkg, fd, v, lhs) {
			report(m.finding(CodeLifecycleTicker, call,
				"%s bound to %q has no Stop in %s — defer %s.Stop() or stop it on the shutdown path",
				tickerCtor(pkg, call), lhs.Name, fd.Name.Name, lhs.Name))
		}
	case *ast.SelectorExpr:
		obj := addressedVar(pkg, lhs)
		if obj == nil {
			return
		}
		if !packageStopsField(pkg, obj) {
			report(m.finding(CodeLifecycleTicker, call,
				"%s stored in field %s has no Stop anywhere in package %s",
				tickerCtor(pkg, call), obj.Name(), pkg.Name))
		}
	}
}

// localTickerHandled reports whether the local ticker variable is
// stopped or escapes ownership inside the function.
func localTickerHandled(pkg *Package, fd *ast.FuncDecl, v *types.Var, def *ast.Ident) bool {
	handled := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// v.Stop() — the pairing we want.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pkg.Info.Uses[id] == v {
					handled = true
					return false
				}
			}
			// v passed to another function: ownership transferred.
			for _, arg := range n.Args {
				if usesVarDirectly(pkg, arg, v) {
					handled = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesVarDirectly(pkg, res, v) {
					handled = true
					return false
				}
			}
		case *ast.AssignStmt:
			// v stored somewhere else (a field, a map) escapes too.
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && id != def && pkg.Info.Uses[id] == v {
					handled = true
					return false
				}
			}
		}
		return true
	})
	return handled
}

// usesVarDirectly reports whether e is the variable itself (or its
// address) — a selector like v.C does not transfer ownership.
func usesVarDirectly(pkg *Package, e ast.Expr, v *types.Var) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && pkg.Info.Uses[id] == v
}

// packageStopsField reports whether any file in the package calls Stop
// on the given ticker field.
func packageStopsField(pkg *Package, field *types.Var) bool {
	for _, f := range pkg.Files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Stop" {
				return true
			}
			if obj := addressedVar(pkg, ast.Unparen(sel.X)); obj == field {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// addressedVar resolves an expression to the variable it names: a
// struct field (through the type-checker's selection) or a
// plain/package-level variable. nil for anything unkeyable (slice
// elements, map values, dereferences).
func addressedVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v // qualified package-level var
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	}
	return nil
}
