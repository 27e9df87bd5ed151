package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Fixture tests: each tree under testdata is a tiny module (import-path
// prefix "fixture") seeded with violations. Expected findings are
// written in the fixture source as
//
//	<code under test>           // want CODE [CODE...]
//	// want-next CODE           (for findings on the following line,
//	                             e.g. on pragma comments that cannot
//	                             carry a trailing comment)
//
// and the harness compares the set of (file, line, code) findings
// against the expectations — both directions, so a fixture also proves
// the analyzer stays quiet on its negative cases.

// testFixture loads testdata/<name>, runs the given analyzers with
// fixture-specific options, and diffs findings against the // want
// expectations embedded in the fixture source.
func testFixture(t *testing.T, name string, opts Options, analyzers []*Analyzer) *Document {
	t.Helper()
	root := filepath.Join("testdata", name)
	m, err := Load(root, "fixture")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	doc := Run(m, opts, analyzers, "fixture-"+name)

	want := fixtureExpectations(t, root)
	got := map[string]string{}
	for _, f := range doc.Findings {
		got[fmt.Sprintf("%s:%d %s", filepath.ToSlash(f.File), f.Line, f.Code)] = f.Message
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("fixture %s: expected finding %s was not reported", name, key)
		}
	}
	for key, msg := range got {
		if !want[key] {
			t.Errorf("fixture %s: unexpected finding %s: %s", name, key, msg)
		}
	}
	return doc
}

// fixtureExpectations scans fixture source for // want and // want-next
// comments and returns the expected "file:line code" keys.
func fixtureExpectations(t *testing.T, root string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var lines []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return err
		}
		for n, text := range lines {
			line := n + 1
			if i := strings.Index(text, "// want-next "); i >= 0 {
				// The expectation applies to the next non-blank comment
				// line: gofmt separates directives from prose with a
				// bare "//", which must not shift the target.
				target := line + 1
				for target-1 < len(lines) && strings.TrimSpace(lines[target-1]) == "//" {
					target++
				}
				for _, code := range strings.Fields(text[i+len("// want-next "):]) {
					want[fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), target, code)] = true
				}
			} else if i := strings.Index(text, "// want "); i >= 0 {
				for _, code := range strings.Fields(text[i+len("// want "):]) {
					want[fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), line, code)] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan fixture expectations: %v", err)
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", root)
	}
	return want
}

func TestDeterminismFixture(t *testing.T) {
	testFixture(t, "determinism", Options{
		DeterminismPkgs: []string{"fixture/core"},
		MapOrderPkgs:    []string{"fixture/core"},
	}, []*Analyzer{analyzerDeterminism()})
}

func TestSchemaFixture(t *testing.T) {
	testFixture(t, "schema", Options{
		SchemaObsPkg:  "fixture/obs",
		SchemaDiagPkg: "fixture/diag",
	}, []*Analyzer{analyzerSchema()})
}

// TestDoccheckFixture covers the documentation analyzer: undocumented
// exported symbols and package clauses are findings, group docs cover
// declared-constant blocks, directives do not masquerade as docs, and
// a reasoned //lint:ignore doc.missing still works as the audited
// escape hatch.
func TestDoccheckFixture(t *testing.T) {
	doc := testFixture(t, "doccheck", Options{}, []*Analyzer{analyzerDoccheck()})
	if doc.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1 (the reasoned ignore on Suppressed)", doc.Suppressions)
	}
}

// TestLifecycleFixture covers the goroutine-lifecycle analyzer: leaked
// background loops (direct, through a named entry point, over a ticker
// channel), unstopped tickers (local, field, inline), the clean
// done-channel shape, a reasoned suppression, and stale suppressions
// for both codes.
func TestLifecycleFixture(t *testing.T) {
	doc := testFixture(t, "lifecycle", Options{
		LifecyclePkgs: []string{"fixture/bg"},
	}, []*Analyzer{analyzerLifecycle()})
	if doc.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1 (the process-lifetime worker in Forever)", doc.Suppressions)
	}
}

// TestLockOrderFixture covers the lock-order analyzer: the AB/BA
// acquisition cycle, self-deadlock on re-acquisition, a lock leaked on
// an early return, the clean early-unlock/defer/loop shapes, a
// reasoned suppression for a lock handoff, stale suppressions for
// both lock codes, and raw sync/atomic calls next to the clean typed
// wrappers.
func TestLockOrderFixture(t *testing.T) {
	doc := testFixture(t, "lockorder", Options{
		LockPkgs: []string{"fixture/locks"},
	}, []*Analyzer{analyzerLockOrder()})
	if doc.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1 (the handoff lock)", doc.Suppressions)
	}
}

// TestSuppressFixture is the negative fixture: a reasoned //lint:ignore
// silences its finding (and counts in Document.Suppressions), a stale
// one is a lint.unused-suppression finding, and malformed directives
// are lint.bad-directive findings.
func TestSuppressFixture(t *testing.T) {
	doc := testFixture(t, "suppress", Options{
		DeterminismPkgs: []string{"fixture/core"},
		MapOrderPkgs:    []string{"fixture/core"},
	}, []*Analyzer{analyzerDeterminism()})
	if doc.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1 (the reasoned ignore in sorted)", doc.Suppressions)
	}
}
