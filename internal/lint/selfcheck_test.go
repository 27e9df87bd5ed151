package lint

import (
	"strings"
	"sync"
	"testing"
)

var (
	selfOnce sync.Once
	selfMod  *Module
	selfErr  error
)

// loadSelf type-checks this module once per test binary; the tests
// that need the whole module share the one load.
func loadSelf(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	selfOnce.Do(func() { selfMod, selfErr = LoadRepo(".") })
	if selfErr != nil {
		t.Fatalf("LoadRepo: %v", selfErr)
	}
	return selfMod
}

// TestLoadRepoFindsModule checks LoadRepo resolves the module root and
// path from go.mod starting inside a subdirectory.
func TestLoadRepoFindsModule(t *testing.T) {
	m := loadSelf(t)
	if m.Path != "transn" {
		t.Errorf("module path = %q, want %q", m.Path, "transn")
	}
	if m.Lookup("transn/internal/lint") == nil {
		t.Errorf("module did not load its own package transn/internal/lint")
	}
}

// TestSelfCheck runs the full analyzer suite over this repository with
// the production options — the same check CI's transnlint job and the
// transnlint binary perform. The tree must be clean: every invariant
// the analyzers encode (determinism, schema-registry consistency, doc
// coverage, goroutine lifecycle, lock ordering and typed atomics)
// holds at HEAD, and every suppression in the tree is still earning its
// keep.
func TestSelfCheck(t *testing.T) {
	m := loadSelf(t)
	doc := Run(m, Defaults(), Analyzers(), "selfcheck")
	for _, f := range doc.Findings {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Logf("fix the findings or suppress with //lint:ignore CODE reason")
	}
	if doc.Packages < 10 {
		t.Errorf("only %d packages loaded; the module walk is missing most of the tree", doc.Packages)
	}
	// The sanctioned escape hatches in internal/ordered must stay in
	// use — if they disappear, the suppression audit above would not
	// notice, but the count here pins the contract.
	if doc.Suppressions < 2 {
		t.Errorf("Suppressions = %d, want >= 2 (internal/ordered's reasoned ignores)", doc.Suppressions)
	}
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	const suite = "determinism,schema-registry,doccheck,goroutine-lifecycle,lock-order"
	if got := strings.Join(names, ","); got != suite {
		t.Errorf("analyzer suite = %s; order and names are part of the report contract", got)
	}
	// The report header counts the suite and times the run — the
	// suite-growth trail future PRs read.
	if doc.Analyzers != 5 {
		t.Errorf("doc.Analyzers = %d, want 5", doc.Analyzers)
	}
	if doc.ElapsedMS < 0 {
		t.Errorf("doc.ElapsedMS = %d, want >= 0", doc.ElapsedMS)
	}
}
