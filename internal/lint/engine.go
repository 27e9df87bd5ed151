package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"transn/internal/ordered"
)

// Package is one type-checked module package: its parsed files with
// comments, the go/types results, and the //lint: directives harvested
// from its comments. Test files are excluded —
// the invariants govern shipped code, and tests exercise seeded
// randomness and unordered maps on purpose.
type Package struct {
	Path string // import path ("transn/internal/obs")
	Dir  string // absolute directory
	Name string // package name ("obs")

	Files     []*ast.File
	Filenames map[*ast.File]string // absolute path per file

	Types *types.Package
	Info  *types.Info
}

// Module is a loaded, type-checked source tree: the real repo (rooted
// at go.mod) or a fixture tree under testdata.
type Module struct {
	Root string // absolute root directory
	Path string // module import path ("transn", "fixture")
	Pkgs []*Package

	Fset   *token.FileSet
	byPath map[string]*Package

	// Suppressions are the //lint:ignore directives found anywhere in
	// the tree; the runner matches them against findings after every
	// analyzer has run.
	Suppressions []*Suppression
	// Annotations maps a function declaration to its //lint: function
	// annotations ("finite-checked", "alloc-free").
	Annotations map[*ast.FuncDecl][]string
	// directiveFindings are malformed //lint: comments, reported as
	// lint.bad-directive by the runner.
	directiveFindings []Finding
}

// Suppression is one //lint:ignore CODE reason comment. It silences
// findings with the same code on its own line or the line immediately
// below (so it can trail a statement or sit on its own line above one).
type Suppression struct {
	File string // relative to module root
	Line int
	Code string
	used bool
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// Rel makes a position's filename relative to the module root, which
// keeps documents and fixture expectations machine-independent.
func (m *Module) Rel(p token.Position) token.Position {
	if r, err := filepath.Rel(m.Root, p.Filename); err == nil {
		p.Filename = r
	}
	return p
}

// Load parses and type-checks every non-test package under root.
// modPath is the tree's import-path prefix: for the real repo it is
// read from go.mod by LoadRepo; fixture trees pass their own. Stdlib
// imports are type-checked from GOROOT source via go/importer;
// module-internal imports resolve recursively within the tree.
// Directories named testdata (and hidden directories) are skipped.
func Load(root, modPath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:        root,
		Path:        modPath,
		Fset:        token.NewFileSet(),
		byPath:      map[string]*Package{},
		Annotations: map[*ast.FuncDecl][]string{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	parsed := map[string]*Package{} // import path -> parsed (pre-typecheck)
	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			parsed[pkg.Path] = pkg
		}
	}

	// Type-check in dependency order: the importer recurses into
	// module-internal imports, so iterating in any order works; sorted
	// paths keep error output stable.
	imp := &moduleImporter{
		m:      m,
		parsed: parsed,
		std:    importer.ForCompiler(m.Fset, "source", nil),
		state:  map[string]int{},
	}
	paths := ordered.Keys(parsed)
	for _, p := range paths {
		if _, err := imp.check(p); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p, err)
		}
	}
	// Pkgs in path order for deterministic analysis and reports.
	for _, p := range paths {
		m.Pkgs = append(m.Pkgs, m.byPath[p])
	}
	m.harvestDirectives()
	return m, nil
}

// LoadRepo loads the module containing dir: it walks up to the nearest
// go.mod, reads the module path, and Loads the whole tree.
func LoadRepo(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: %s/go.mod has no module line", root)
	}
	return Load(root, modPath)
}

// parseDir parses the non-test .go files of one directory that build
// for the host platform (file-name suffixes and //go:build lines, as
// the go command selects them) into a Package (nil if there are none).
func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Filenames: map[*ast.File]string{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames[f] = path
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	pkg.Name = pkg.Files[0].Name.Name
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		pkg.Path = m.Path
	} else {
		pkg.Path = m.Path + "/" + filepath.ToSlash(rel)
	}
	return pkg, nil
}

// moduleImporter resolves module-internal imports against the parsed
// tree (type-checking on demand, with cycle detection) and everything
// else through the stdlib source importer.
type moduleImporter struct {
	m      *Module
	parsed map[string]*Package
	std    types.Importer
	state  map[string]int // 0 unvisited, 1 in progress, 2 done
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == mi.m.Path || strings.HasPrefix(path, mi.m.Path+"/") {
		return mi.check(path)
	}
	return mi.std.Import(path)
}

func (mi *moduleImporter) check(path string) (*types.Package, error) {
	if mi.state[path] == 2 {
		return mi.m.byPath[path].Types, nil
	}
	if mi.state[path] == 1 {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	pkg := mi.parsed[path]
	if pkg == nil {
		return nil, fmt.Errorf("module package %s not found under %s", path, mi.m.Root)
	}
	mi.state[path] = 1
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: mi}
	tpkg, err := conf.Check(path, mi.m.Fset, pkg.Files, info)
	if err != nil {
		return nil, err
	}
	pkg.Types = tpkg
	pkg.Info = info
	mi.m.byPath[path] = pkg
	mi.state[path] = 2
	return tpkg, nil
}

// harvestDirectives scans every comment in the tree for //lint:
// directives: suppressions, function annotations, and malformed forms.
func (m *Module) harvestDirectives() {
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			// Map function declarations to their doc comments so
			// annotations can be attached (and strays detected).
			docOwner := map[*ast.CommentGroup]*ast.FuncDecl{}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					docOwner[fd.Doc] = fd
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:")
					if !ok {
						continue
					}
					pos := m.Rel(m.Fset.Position(c.Pos()))
					verb, rest, _ := strings.Cut(text, " ")
					rest = strings.TrimSpace(rest)
					switch verb {
					case "ignore":
						code, reason, _ := strings.Cut(rest, " ")
						if code == "" || strings.TrimSpace(reason) == "" {
							m.directiveFindings = append(m.directiveFindings, Finding{
								Analyzer: "lint", Code: CodeBadDirective,
								File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: "//lint:ignore needs a finding code and a reason: //lint:ignore CODE reason",
							})
							continue
						}
						m.Suppressions = append(m.Suppressions, &Suppression{
							File: pos.Filename, Line: pos.Line, Code: code,
						})
					case "finite-checked", "alloc-free":
						fd := docOwner[cg]
						if fd == nil {
							m.directiveFindings = append(m.directiveFindings, Finding{
								Analyzer: "lint", Code: CodeBadDirective,
								File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("//lint:%s must be part of a function's doc comment", verb),
							})
							continue
						}
						if rest == "" {
							reason := "a reason naming who checks the writes"
							if verb == "alloc-free" {
								reason = "a reason naming the AllocsPerRun pin or hot path"
							}
							m.directiveFindings = append(m.directiveFindings, Finding{
								Analyzer: "lint", Code: CodeBadDirective,
								File: pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("//lint:%s needs %s", verb, reason),
							})
							continue
						}
						m.Annotations[fd] = append(m.Annotations[fd], verb)
					default:
						m.directiveFindings = append(m.directiveFindings, Finding{
							Analyzer: "lint", Code: CodeBadDirective,
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("unknown //lint: directive %q (know: ignore, finite-checked, alloc-free)", verb),
						})
					}
				}
			}
		}
	}
}

// Analyzer is one invariant checker. Analyzers only read the module and
// append findings; the runner owns suppression matching and ordering.
type Analyzer struct {
	Name string
	Run  func(m *Module, opts Options, report func(Finding))
}

// Options tunes the analyzers for the tree being linted. Defaults()
// returns the real repo's configuration; fixture tests substitute their
// own package names so each analyzer can be exercised in isolation.
type Options struct {
	// DeterminismPkgs are the deterministic-core packages where global
	// math/rand calls and wall-clock seeds are findings: everything
	// reachable from Train owns its RNG streams (rngstream) and no
	// wall-clock input.
	DeterminismPkgs []string
	// MapOrderPkgs are the packages where order-sensitive map ranges
	// are findings: the deterministic core plus every package that
	// assembles schema-stable documents (obs, diag) or prints results.
	// Empty means every loaded package.
	MapOrderPkgs []string

	// FinitePkgs are the weight-owning packages where unguarded float
	// writes into slices are findings.
	FinitePkgs []string
	// GuardFuncs are function names whose presence in a body counts as
	// flowing through the finite guard.
	GuardFuncs []string
	// GuardFiles are base filenames whose functions are the guard
	// itself and therefore exempt.
	GuardFiles []string

	// SchemaObsPkg / SchemaDiagPkg name the packages declaring the
	// metric/span/stage/level and finding-code constant sets.
	SchemaObsPkg  string
	SchemaDiagPkg string

	// DocPkgs are the packages where undocumented exported symbols are
	// findings. Empty means every loaded package (Load already excludes
	// _test.go files, so tests are never in scope).
	DocPkgs []string

	// LifecyclePkgs are the long-lived packages where a `go` statement
	// spinning an unstoppable background loop, or an unstopped
	// time.NewTicker/NewTimer, is a finding.
	LifecyclePkgs []string
	// LockPkgs are the packages whose mutex acquisition graphs are
	// checked for cycles and unbalanced lock/unlock paths. Empty means
	// every loaded package.
	LockPkgs []string
}

// Defaults returns the options that describe this repository.
func Defaults() Options {
	return Options{
		DeterminismPkgs: []string{"transn/internal/transn", "transn/internal/walk", "transn/internal/skipgram", "transn/internal/rngstream", "transn/internal/par", "transn/internal/mat", "transn/internal/graph", "transn/internal/ann", "transn/internal/snapfmt"},
		MapOrderPkgs:    nil, // every package: reports, CLIs and examples all emit ordered output
		FinitePkgs:      []string{"transn/internal/transn", "transn/internal/skipgram"},
		GuardFuncs:      []string{"isFinite", "finiteSlice", "CheckFinite", "guardIteration"},
		GuardFiles:      []string{"finite.go"},
		SchemaObsPkg:    "transn/internal/obs",
		SchemaDiagPkg:   "transn/internal/diag",
		LifecyclePkgs:   []string{"transn/internal/obs", "transn/internal/serve", "transn/internal/load", "transn/internal/par"},
		LockPkgs:        nil, // every package: lock discipline is repo-wide
	}
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism(),
		analyzerFinite(),
		analyzerSchema(),
		analyzerDoccheck(),
		analyzerLifecycle(),
		analyzerLockOrder(),
		analyzerAllocPin(),
	}
}

// Run executes the analyzers over the module, applies suppressions, and
// returns the finalized document. A //lint:ignore CODE on a finding's
// line (or the line above) silences it and marks the suppression used;
// unused suppressions and malformed directives are findings themselves.
func Run(m *Module, opts Options, analyzers []*Analyzer, name string) *Document {
	start := time.Now()
	doc := &Document{Schema: Schema, Name: name, Packages: len(m.Pkgs), Analyzers: len(analyzers)}
	var raw []Finding
	for _, a := range analyzers {
		a.Run(m, opts, func(f Finding) {
			f.Analyzer = a.Name
			raw = append(raw, f)
		})
	}
	suppressed := 0
	for _, f := range raw {
		if s := m.suppressionFor(f); s != nil {
			s.used = true
			suppressed++
			continue
		}
		doc.Findings = append(doc.Findings, f)
	}
	doc.Suppressions = suppressed
	for _, s := range m.Suppressions {
		if !s.used {
			doc.Findings = append(doc.Findings, Finding{
				Analyzer: "lint", Code: CodeUnusedSuppression,
				File: s.File, Line: s.Line, Col: 1,
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing — remove it", s.Code),
			})
		}
	}
	doc.Findings = append(doc.Findings, m.directiveFindings...)
	doc.Finalize()
	doc.ElapsedMS = time.Since(start).Milliseconds()
	return doc
}

// suppressionFor returns the first suppression covering the finding: a
// matching code in the same file on the finding's line (trailing
// comment) or the line directly above (own-line comment).
func (m *Module) suppressionFor(f Finding) *Suppression {
	for _, s := range m.Suppressions {
		if s.Code != f.Code || s.File != f.File {
			continue
		}
		if s.Line == f.Line || s.Line == f.Line-1 {
			return s
		}
	}
	return nil
}

// finding builds a Finding at the given node's position.
func (m *Module) finding(code string, node ast.Node, format string, args ...any) Finding {
	return m.findingAt(code, node.Pos(), format, args...)
}

// findingAt builds a Finding at an explicit position — for verdicts
// anchored to a types.Object (a field declaration) rather than the
// syntax node that triggered the analysis.
func (m *Module) findingAt(code string, p token.Pos, format string, args ...any) Finding {
	pos := m.Rel(m.Fset.Position(p))
	return Finding{
		Code: code, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// shortPos renders a position as file:line for messages.
func (m *Module) shortPos(p token.Pos) string {
	pos := m.Rel(m.Fset.Position(p))
	return pos.Filename + ":" + strconv.Itoa(pos.Line)
}

// inScope reports whether pkg's import path is in the list; an empty
// list means every package is in scope.
func inScope(pkg *Package, paths []string) bool {
	if len(paths) == 0 {
		return true
	}
	for _, p := range paths {
		if pkg.Path == p {
			return true
		}
	}
	return false
}
