package lint

import (
	"go/ast"
	"go/types"
)

// FuncNode is one module function in the lightweight call graph built
// for the reachability analyzers. Only static calls are resolved
// (direct calls and concrete method calls); calls through a function
// value or interface method are not followed.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees are the statically resolved module-internal callees.
	Callees []*types.Func
}

// CallGraph indexes every function declaration in the module.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
}

// Node returns the graph node for fn, or nil for functions without a
// body in the module (stdlib, interface methods).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// BuildCallGraph walks every function body in the module once and
// resolves its static callees through the type-checker's Uses map.
func BuildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*FuncNode{}}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = node
				collectCalls(pkg, m.Path, fd.Body, node)
			}
		}
	}
	return g
}

func collectCalls(pkg *Package, modPath string, body ast.Node, node *FuncNode) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeOf(pkg, call); callee != nil && callee.Pkg() != nil && isModulePath(callee.Pkg().Path(), modPath) {
				node.Callees = append(node.Callees, callee)
			}
		}
		return true
	})
}

// calleeOf resolves a call expression to a *types.Func when the target
// is a declared function or concrete method; nil otherwise. Explicit
// generic instantiations (f[T](x)) are unwrapped to the function name.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	target := ast.Unparen(call.Fun)
	switch idx := target.(type) {
	case *ast.IndexExpr:
		target = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		target = ast.Unparen(idx.X)
	}
	switch fun := target.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Interface method calls resolve to the interface's *types.Func;
		// treat them as unresolved (dynamic) since any implementation
		// may run.
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return nil
				}
				return fn
			}
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func isModulePath(path, modPath string) bool {
	return path == modPath || len(path) > len(modPath) && path[:len(modPath)] == modPath && path[len(modPath)] == '/'
}
