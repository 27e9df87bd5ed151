package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockorder.go — the lock-order analyzer. It keys every
// sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock call to the variable
// holding the mutex (a struct field like TraceRing.mu, or a package
// variable), then does two things:
//
//   - a symbolic per-function walk tracking the held set across
//     branches, loops, and defers, reporting locks still held on a
//     return, an explicit panic, or the end of the body with no
//     deferred unlock covering them (lock.unbalanced);
//   - a module-wide acquisition graph — an edge A→B whenever B is
//     taken (directly or through a statically resolved call chain)
//     while A is held — whose cycles are the classic AB/BA deadlocks
//     (lock.cycle). Re-acquiring a write-held mutex is reported as a
//     self-deadlock immediately.
//
// It also keeps shared counters and pointers on the typed sync/atomic
// wrappers (atomic.Int64, atomic.Pointer, ...): a call to a raw
// package-level function such as atomic.AddInt64 is lock.raw-atomic.
// A raw atomic leaves its variable open to plain accesses that race
// with it, and a 64-bit one panics on 32-bit platforms when the field
// is misaligned; the wrappers rule out both.
//
// `go` statements and function literals run outside the caller's
// critical section, so the walk skips into neither; literals are walked
// standalone with an empty held set.

// analyzerLockOrder builds the lock-order analyzer.
func analyzerLockOrder() *Analyzer {
	return &Analyzer{Name: "lock-order", Run: runLockOrder}
}

// lockKey identifies one mutex variable in one acquisition mode (read
// for RLock/RUnlock, write for Lock/Unlock).
type lockKey struct {
	v    *types.Var
	read bool
}

// heldLock is one entry of the walker's held set: which lock, and where
// it was taken (findings anchor at the acquisition site).
type heldLock struct {
	key lockKey
	pos token.Pos
}

// heldSet is the ordered set of locks held on the current path. It is
// a slice — held sets are tiny and slice order keeps every iteration
// deterministic.
type heldSet []heldLock

func (h heldSet) index(k lockKey) int {
	for i, hl := range h {
		if hl.key == k {
			return i
		}
	}
	return -1
}

func (h heldSet) clone() heldSet { return append(heldSet(nil), h...) }

func unionHeld(a, b heldSet) heldSet {
	out := a.clone()
	for _, hl := range b {
		if out.index(hl.key) < 0 {
			out = append(out, hl)
		}
	}
	return out
}

// varSet is a declaration-position-sorted set of lock variables — the
// per-function summary of what a call may acquire.
type varSet []*types.Var

func (s varSet) has(v *types.Var) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (s varSet) add(v *types.Var) (varSet, bool) {
	if s.has(v) {
		return s, false
	}
	i := len(s)
	for j, x := range s {
		if v.Pos() < x.Pos() {
			i = j
			break
		}
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// lockAnalysis is the module-wide state: display names, per-function
// acquisition summaries, and the ordering graph.
type lockAnalysis struct {
	m      *Module
	report func(Finding)

	names    map[*types.Var]string
	acquires map[*types.Func]varSet

	edgeSeen map[[2]*types.Var]token.Pos
	edges    map[*types.Var][]*types.Var
	order    []*types.Var // first-seen order for deterministic DFS
}

func runLockOrder(m *Module, opts Options, report func(Finding)) {
	la := &lockAnalysis{
		m: m, report: report,
		names:    map[*types.Var]string{},
		acquires: map[*types.Func]varSet{},
		edgeSeen: map[[2]*types.Var]token.Pos{},
		edges:    map[*types.Var][]*types.Var{},
	}
	la.computeAcquires()
	for _, pkg := range m.Pkgs {
		if !inScope(pkg, opts.LockPkgs) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := calleeOf(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
						fn.Type().(*types.Signature).Recv() == nil {
						report(m.finding(CodeLockRawAtomic, call,
							"atomic.%s is a raw sync/atomic call; use a typed wrapper (atomic.Int64, atomic.Pointer, ...)", fn.Name()))
					}
				}
				return true
			})
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				la.walkFunction(pkg, fd.Body, "function "+fd.Name.Name)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						la.walkFunction(pkg, lit.Body, "function literal in "+fd.Name.Name)
					}
					return true
				})
			}
		}
	}
	la.reportCycles()
}

// walkFunction runs the balance walk over one function body.
func (la *lockAnalysis) walkFunction(pkg *Package, body *ast.BlockStmt, where string) {
	w := &lockWalker{la: la, pkg: pkg, where: where, deferRel: map[lockKey]bool{}}
	held, terminated := w.walk(body.List, nil)
	if !terminated {
		w.checkRelease(held, body.End(), "end of "+where)
	}
}

// mutexOp classifies a call as a sync lock-discipline method on a
// keyable variable; acquire is true for Lock/RLock.
func (la *lockAnalysis) mutexOp(pkg *Package, call *ast.CallExpr) (lockKey, bool, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false, false
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return lockKey{}, false, false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return lockKey{}, false, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, false, false
	}
	v := lockVarOf(pkg, sel.X)
	if v == nil {
		return lockKey{}, false, false
	}
	la.nameFor(pkg, sel.X, v)
	return lockKey{v, read}, acquire, true
}

// lockVarOf resolves the receiver expression of a mutex method to the
// variable that owns the mutex: a struct field (c.mu → field mu) or a
// plain variable. nil for anything unkeyable.
func lockVarOf(pkg *Package, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// nameFor renders (and caches) a lock's display name: Type.field for
// struct fields, the bare name otherwise.
func (la *lockAnalysis) nameFor(pkg *Package, x ast.Expr, v *types.Var) string {
	if n, ok := la.names[v]; ok {
		return n
	}
	name := v.Name()
	if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok {
			t := s.Recv()
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + v.Name()
			}
		}
	}
	la.names[v] = name
	return name
}

// computeAcquires summarizes, for every module function, the set of
// lock variables it may acquire — directly or through its statically
// resolved callees. `go` subtrees are excluded: a launched goroutine
// does not lock on the caller's path. The summary drives the
// interprocedural ordering edges.
func (la *lockAnalysis) computeAcquires() {
	type fnInfo struct {
		fn      *types.Func
		callees []*types.Func
	}
	var fns []fnInfo
	for _, pkg := range la.m.Pkgs {
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
				var direct varSet
				var callees []*types.Func
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						return false
					case *ast.CallExpr:
						if key, acquire, ok := la.mutexOp(pkg, n); ok {
							if acquire {
								direct, _ = direct.add(key.v)
							}
							return true
						}
						if callee := calleeOf(pkg, n); callee != nil && callee.Pkg() != nil && isModulePath(callee.Pkg().Path(), la.m.Path) {
							callees = append(callees, callee)
						}
					}
					return true
				})
				la.acquires[fn] = direct
				fns = append(fns, fnInfo{fn, callees})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			mine := la.acquires[fi.fn]
			for _, c := range fi.callees {
				for _, v := range la.acquires[c] {
					var added bool
					if mine, added = mine.add(v); added {
						changed = true
					}
				}
			}
			la.acquires[fi.fn] = mine
		}
	}
}

// noteVar registers a lock variable as a graph node in first-seen
// order.
func (la *lockAnalysis) noteVar(v *types.Var) {
	if _, ok := la.edges[v]; !ok {
		la.edges[v] = nil
		la.order = append(la.order, v)
	}
}

// addEdge records A→B (B taken while A held) once, keeping the first
// acquisition site for the cycle report.
func (la *lockAnalysis) addEdge(from, to *types.Var, pos token.Pos) {
	key := [2]*types.Var{from, to}
	if _, ok := la.edgeSeen[key]; ok {
		return
	}
	la.edgeSeen[key] = pos
	la.noteVar(from)
	la.noteVar(to)
	la.edges[from] = append(la.edges[from], to)
}

// reportCycles runs a DFS over the acquisition graph and reports every
// distinct cycle once, anchored at the back edge that closes it.
func (la *lockAnalysis) reportCycles() {
	state := map[*types.Var]int{}
	dupes := map[string]bool{}
	var stack []*types.Var
	var dfs func(v *types.Var)
	dfs = func(v *types.Var) {
		state[v] = 1
		stack = append(stack, v)
		for _, to := range la.edges[v] {
			switch state[to] {
			case 0:
				dfs(to)
			case 1:
				i := 0
				for stack[i] != to {
					i++
				}
				cycle := append([]*types.Var(nil), stack[i:]...)
				la.reportCycle(cycle, la.edgeSeen[[2]*types.Var{v, to}], dupes)
			}
		}
		stack = stack[:len(stack)-1]
		state[v] = 2
	}
	for _, v := range la.order {
		if state[v] == 0 {
			dfs(v)
		}
	}
}

func (la *lockAnalysis) reportCycle(cycle []*types.Var, pos token.Pos, dupes map[string]bool) {
	// Canonicalize: rotate the cycle so the earliest-declared lock
	// leads, so A→B→A and B→A→B are the same finding.
	lead := 0
	for i, v := range cycle {
		if v.Pos() < cycle[lead].Pos() {
			lead = i
		}
	}
	rotated := append(append([]*types.Var(nil), cycle[lead:]...), cycle[:lead]...)
	parts := make([]string, 0, len(rotated)+1)
	for _, v := range rotated {
		parts = append(parts, la.names[v])
	}
	parts = append(parts, la.names[rotated[0]])
	key := strings.Join(parts, "→")
	if dupes[key] {
		return
	}
	dupes[key] = true
	la.report(la.m.findingAt(CodeLockCycle, pos,
		"lock ordering cycle %s — these mutexes are acquired in opposite orders, a potential deadlock", strings.Join(parts, " → ")))
}

// lockWalker is the per-function symbolic walk.
type lockWalker struct {
	la       *lockAnalysis
	pkg      *Package
	where    string
	deferRel map[lockKey]bool // deferred unlocks cover every later exit
}

// walk processes a statement list, threading the held set through and
// reporting on terminating paths; terminated is true when every path
// through the list returns or panics.
func (w *lockWalker) walk(stmts []ast.Stmt, held heldSet) (heldSet, bool) {
	held = held.clone()
	for _, s := range stmts {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held heldSet) (heldSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanicCall(w.pkg, call) {
			w.checkRelease(held, call.Pos(), "panic")
			return held, true
		}
		held = w.exprEffects(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.exprEffects(e, held)
		}
	case *ast.DeclStmt:
		held = w.exprEffects(s, held)
	case *ast.SendStmt:
		held = w.exprEffects(s.Chan, held)
		held = w.exprEffects(s.Value, held)
	case *ast.DeferStmt:
		if key, acquire, ok := w.la.mutexOp(w.pkg, s.Call); ok && !acquire {
			w.deferRel[key] = true
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.exprEffects(e, held)
		}
		w.checkRelease(held, s.Pos(), "return")
		return held, true
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		held = w.exprEffects(s.Cond, held)
		h1, t1 := w.walk(s.Body.List, held)
		h2, t2 := held, false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			h2, t2 = w.walk(e.List, held)
		case *ast.IfStmt:
			h2, t2 = w.stmt(e, held)
		}
		switch {
		case t1 && t2:
			return held, true
		case t1:
			return h2, false
		case t2:
			return h1, false
		default:
			return unionHeld(h1, h2), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.exprEffects(s.Cond, held)
		}
		// Loop bodies must re-balance per iteration, so their net
		// effect on the held set is discarded; returns inside are
		// still checked by the nested walk.
		w.walk(s.Body.List, held)
	case *ast.RangeStmt:
		held = w.exprEffects(s.X, held)
		w.walk(s.Body.List, held)
	case *ast.BlockStmt:
		return w.walk(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.exprEffects(s.Tag, held)
		}
		bodies, exhaustive := caseBodies(s.Body)
		return w.branches(bodies, exhaustive, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		bodies, exhaustive := caseBodies(s.Body)
		return w.branches(bodies, exhaustive, held)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		exhaustive := true // select blocks until some clause runs
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			var b []ast.Stmt
			if cc.Comm != nil {
				b = append(b, cc.Comm)
			}
			bodies = append(bodies, append(b, cc.Body...))
		}
		return w.branches(bodies, exhaustive, held)
	}
	return held, false
}

// branches walks each alternative with the same entry set and merges:
// all-terminated + exhaustive means the statement terminates; otherwise
// the union of every surviving exit (plus the entry set when a no-match
// fall-through exists) flows on.
func (w *lockWalker) branches(bodies [][]ast.Stmt, exhaustive bool, held heldSet) (heldSet, bool) {
	if len(bodies) == 0 {
		return held, false
	}
	var merged heldSet
	any := false
	for _, b := range bodies {
		h, t := w.walk(b, held)
		if t {
			continue
		}
		if !any {
			merged, any = h, true
		} else {
			merged = unionHeld(merged, h)
		}
	}
	if !any && exhaustive {
		return held, true
	}
	if !exhaustive {
		merged = unionHeld(merged, held)
	} else if !any {
		merged = held
	}
	return merged, false
}

// caseBodies extracts switch clause bodies and whether a default clause
// makes the switch exhaustive.
func caseBodies(block *ast.BlockStmt) ([][]ast.Stmt, bool) {
	var bodies [][]ast.Stmt
	exhaustive := false
	for _, c := range block.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			exhaustive = true
		}
		bodies = append(bodies, cc.Body)
	}
	return bodies, exhaustive
}

// exprEffects applies an expression's lock effects: mutex calls move
// the held set, and calls into functions that themselves acquire locks
// add ordering edges from everything currently held. Function literals
// are skipped — they run later, outside this critical section.
func (w *lockWalker) exprEffects(n ast.Node, held heldSet) heldSet {
	if n == nil {
		return held
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, acquire, ok := w.la.mutexOp(w.pkg, call); ok {
			if !acquire {
				if i := held.index(key); i >= 0 {
					held = append(held[:i:i], held[i+1:]...)
				}
				return true
			}
			for _, hl := range held {
				if hl.key.v == key.v {
					if !(hl.key.read && key.read) {
						w.la.report(w.la.m.finding(CodeLockCycle, call,
							"%s is acquired here while already held (taken at %s) — guaranteed self-deadlock",
							w.la.names[key.v], w.la.m.shortPos(hl.pos)))
					}
					continue
				}
				w.la.addEdge(hl.key.v, key.v, call.Pos())
			}
			if held.index(key) < 0 {
				held = append(held, heldLock{key, call.Pos()})
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		if callee := calleeOf(w.pkg, call); callee != nil {
			for _, v := range w.la.acquires[callee] {
				for _, hl := range held {
					if hl.key.v != v {
						w.la.addEdge(hl.key.v, v, call.Pos())
					}
				}
			}
		}
		return true
	})
	return held
}

// checkRelease reports every lock still held at a path exit that no
// deferred unlock covers.
func (w *lockWalker) checkRelease(held heldSet, at token.Pos, why string) {
	for _, hl := range held {
		if w.deferRel[hl.key] {
			continue
		}
		pos := w.la.m.Rel(w.la.m.Fset.Position(at))
		w.la.report(w.la.m.findingAt(CodeLockUnbalanced, hl.pos,
			"%s locked here is not released on the %s at line %d (no unlock on this path, no deferred unlock)",
			w.la.names[hl.key.v], why, pos.Line))
	}
}

// isPanicCall reports whether the call is the builtin panic.
func isPanicCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, ok = pkg.Info.Uses[id].(*types.Builtin)
	return ok
}
