package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"transn/internal/obs"
)

// filledRows counts the row-table slots of s that hold a translation.
func filledRows(s *snapshot) int {
	n := 0
	for p := range s.rows {
		for side := range s.rows[p] {
			for i := range s.rows[p][side] {
				if s.rows[p][side][i].Load() != nil {
					n++
				}
			}
		}
	}
	return n
}

// a1Slot returns s's row-table slot of T_{authorship→affiliation}(A1).
func a1Slot(s *snapshot) *atomic.Pointer[[]float64] {
	v := s.viewByName
	p, _ := s.frozen.PairFor(v["authorship"], v["affiliation"])
	return s.rowSlot(p, v["authorship"], s.nodeByName["A1"])
}

// TestRowTablePerSnapshotIsolation pins the reload contract of the
// translated-row table: each snapshot owns its table, so a row filled at
// generation g is not served at g+1 (the new generation starts empty and
// computes the row again), and the old snapshot's row stays as it was
// for requests still in flight on it. Every answer — the miss that
// fills a row and the hit that reads it — is byte-identical to the
// committed golden body.
func TestRowTablePerSnapshotIsolation(t *testing.T) {
	sv, err := New(Config{
		GraphPath: filepath.Join("testdata", "quickstart.tsv"),
		ModelPath: filepath.Join("testdata", "quickstart.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "translate.json"))
	if err != nil {
		t.Fatal(err)
	}
	const target = "/v1/translate?node=A1&from=authorship&to=affiliation"
	do := func(wantHits, wantMisses int64) {
		t.Helper()
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), golden) {
			t.Fatalf("body differs from testdata/golden/translate.json:\n got: %s\nwant: %s", rec.Body, golden)
		}
		c := sv.run.Reg.Snapshot().Counters
		if c[obs.MetricServeCacheHits] != wantHits || c[obs.MetricServeCacheMisses] != wantMisses {
			t.Fatalf("hits/misses = %d/%d, want %d/%d",
				c[obs.MetricServeCacheHits], c[obs.MetricServeCacheMisses], wantHits, wantMisses)
		}
	}

	oldSnap := sv.snap.Load()
	if n := filledRows(oldSnap); n != 0 {
		t.Fatalf("fresh snapshot has %d filled rows, want 0", n)
	}
	do(0, 1) // miss: computes and publishes the row
	do(1, 1) // hit: reads it
	if n := filledRows(oldSnap); n != 1 {
		t.Fatalf("filled rows after one translate key = %d, want 1", n)
	}
	oldRow := a1Slot(oldSnap).Load()

	if err := sv.Reload(); err != nil {
		t.Fatal(err)
	}
	newSnap := sv.snap.Load()
	if newSnap == oldSnap || newSnap.gen != oldSnap.gen+1 {
		t.Fatal("reload did not produce the next generation")
	}
	if n := filledRows(newSnap); n != 0 {
		t.Fatalf("generation %d starts with %d filled rows, want 0", newSnap.gen, n)
	}
	do(1, 2) // the generation-1 row is not served: a miss again
	do(2, 2)
	if n := filledRows(newSnap); n != 1 {
		t.Fatalf("filled rows at generation %d = %d, want 1", newSnap.gen, n)
	}
	newRow := a1Slot(newSnap).Load()
	if newRow == nil || &(*newRow)[0] == &(*oldRow)[0] {
		t.Fatal("generation 2 serves generation 1's row instead of its own")
	}
	if a1Slot(oldSnap).Load() != oldRow || filledRows(oldSnap) != 1 {
		t.Fatal("the retired snapshot's table changed after the reload")
	}
}
