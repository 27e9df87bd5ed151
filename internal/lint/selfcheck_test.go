package lint

import (
	"strings"
	"testing"
)

// TestSelfCheck runs the full analyzer suite over this repository with
// the production options — the same check CI's transnlint job and the
// transnlint binary perform. The tree must be clean: every invariant
// the analyzers encode (determinism, finite hygiene, schema-registry
// consistency, goroutine lifecycle, lock ordering and typed atomics,
// alloc-free pins) holds at HEAD, and every
// suppression in the tree is still earning its keep.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is slow; run without -short")
	}
	m, err := LoadRepo(".")
	if err != nil {
		t.Fatalf("LoadRepo: %v", err)
	}
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
	const suite = "determinism,finite-hygiene,schema-registry,doccheck," +
		"goroutine-lifecycle,lock-order,alloc-pin"
	if got := strings.Join(names, ","); got != suite {
		t.Errorf("analyzer suite = %s; order and names are part of the report contract", got)
	}
	// The report header counts the suite and times the run — the
	// suite-growth trail future PRs read.
	if doc.Analyzers != 7 {
		t.Errorf("doc.Analyzers = %d, want 7", doc.Analyzers)
	}
	if doc.ElapsedMS < 0 {
		t.Errorf("doc.ElapsedMS = %d, want >= 0", doc.ElapsedMS)
	}
}
