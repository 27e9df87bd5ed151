package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// globalRandFuncs are the math/rand package-level functions that draw
// from the shared global source. Using one anywhere on the training
// path silently decouples results from Config.Seed; every stream must
// derive from internal/rngstream instead.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// seedSinks are the functions whose arguments must never carry
// wall-clock input: feeding time.Now into one seeds a run that can
// never be reproduced.
var seedSinks = map[string]bool{"New": true, "NewSource": true, "Derive": true}

// analyzerDeterminism enforces the training reproducibility contract
// (DESIGN.md §6) and the schema-stable documents
// (§7–8): no global math/rand calls and no wall-clock-derived seeds in
// the deterministic-core packages, and no order-sensitive iteration
// over maps anywhere — Go randomizes map range order per run, so a
// range body that appends, prints, encodes, sends, or accumulates
// floats leaks that randomness into output. Iterating a sorted key
// slice (internal/ordered.Keys) is the sanctioned escape hatch, and
// //lint:ignore determinism.map-order is available for genuinely
// order-insensitive bodies.
func analyzerDeterminism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Run: func(m *Module, opts Options, report func(Finding)) {
			for _, pkg := range m.Pkgs {
				core := inScope(pkg, opts.DeterminismPkgs)
				mapScope := inScope(pkg, opts.MapOrderPkgs)
				if !core && !mapScope {
					continue
				}
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.CallExpr:
							if core {
								checkRandCall(m, pkg, n, report)
								checkSeedSink(m, pkg, n, report)
								checkWallClockEpoch(m, pkg, n, report)
							}
						case *ast.RangeStmt:
							if mapScope {
								checkMapRange(m, pkg, n, report)
							}
						}
						return true
					})
				}
			}
		},
	}
}

// checkRandCall flags calls to math/rand's global-source functions.
func checkRandCall(m *Module, pkg *Package, call *ast.CallExpr, report func(Finding)) {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // method on an explicit *rand.Rand stream — fine
	}
	if globalRandFuncs[fn.Name()] {
		report(m.finding(CodeGlobalRand, call,
			"rand.%s uses the global math/rand source; derive a private stream with rngstream.New(seed, labels...) instead", fn.Name()))
	}
}

// checkSeedSink flags seed-deriving calls (rand.NewSource, rand.New,
// rngstream.New, rngstream.Derive) whose arguments contain time.Now.
func checkSeedSink(m *Module, pkg *Package, call *ast.CallExpr, report func(Finding)) {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil || !seedSinks[fn.Name()] {
		return
	}
	p := fn.Pkg().Path()
	if p != "math/rand" && !strings.HasSuffix(p, "/rngstream") {
		return
	}
	for _, arg := range call.Args {
		if containsTimeNow(pkg, arg) {
			report(m.finding(CodeTimeSeed, call,
				"%s.%s seeded from the wall clock; seeds must come from configuration so runs are reproducible", fn.Pkg().Name(), fn.Name()))
			return
		}
	}
}

// checkWallClockEpoch flags time.Now().UnixNano() and friends in the
// deterministic core — the canonical wall-clock seed recipe. Plain
// time.Now/time.Since (telemetry timing) is allowed; converting the
// wall clock to an integer on the training path has no other use.
func checkWallClockEpoch(m *Module, pkg *Package, call *ast.CallExpr, report func(Finding)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "UnixNano", "Unix", "UnixMilli", "UnixMicro":
	default:
		return
	}
	inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
	if !ok {
		return
	}
	if fn := calleeOf(pkg, inner); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
		report(m.finding(CodeTimeSeed, call,
			"time.Now().%s() on the deterministic training path — a wall-clock value has no reproducible use here", sel.Sel.Name))
	}
}

func containsTimeNow(pkg *Package, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// checkMapRange flags a range over a map whose body is order-sensitive.
func checkMapRange(m *Module, pkg *Package, rng *ast.RangeStmt, report func(Finding)) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if why := orderSensitive(pkg, rng.Body); why != "" {
		report(m.finding(CodeMapOrder, rng,
			"map iteration order is random per run and this body %s; iterate ordered.Keys(m) (or //lint:ignore %s with a reason) instead", why, CodeMapOrder))
	}
}

// orderSensitive names the first construct in the range body whose
// result depends on iteration order, or returns "" when the body is
// order-insensitive (map writes, integer counting, comparisons).
func orderSensitive(pkg *Package, body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if obj, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
					why = "appends to a slice"
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if fn := calleeOf(pkg, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
					why = "prints"
				} else if name == "Encode" || name == "Write" || name == "WriteString" {
					why = "writes encoded output"
				}
			}
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloatExpr(pkg, n.Lhs[0]) {
					why = "accumulates floats (addition order changes the result bits)"
				}
			}
		}
		return why == ""
	})
	return why
}

func isFloatExpr(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
