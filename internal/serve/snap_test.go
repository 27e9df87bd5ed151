package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// packSnapFile packs m into a transn.snap/v1 file in dir, optionally
// embedding a default-parameter HNSW index, and returns its path.
func packSnapFile(t testing.TB, m *transn.Model, dir, name string, withANN bool) string {
	t.Helper()
	src, err := snapfmt.FromModel(m, m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if withANN {
		idx, err := ann.Build(src.Final, ann.Norms(src.Final), ann.Config{})
		if err != nil {
			t.Fatal(err)
		}
		src.ANN = idx.AppendTo(nil)
	}
	sp := filepath.Join(dir, name)
	if err := snapfmt.WriteFile(sp, src); err != nil {
		t.Fatal(err)
	}
	return sp
}

// getBody fetches url and returns the raw response body, requiring the
// given status.
func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

// TestSnapFormatServesIdentically pins the format-equivalence contract:
// a server booted from a .snap file answers byte-for-byte the same
// responses with and without an embedded ANN section (absent, the
// server builds the same index from the same table with the same
// default parameters and seed), and both match a server whose snapshot
// is built from the in-memory trained model.
func TestSnapFormatServesIdentically(t *testing.T) {
	dir := t.TempDir()
	gp, mp, m := writeModelFiles(t, dir, 1)
	ref, err := New(Config{GraphPath: gp, ModelPath: mp})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	mem, err := buildSnapshot(m, 1, ref.cfg.CacheSize)
	if err != nil {
		t.Fatal(err)
	}
	ref.snap.Store(mem)
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()

	paths := []string{
		"/v1/embedding?node=A1",
		"/v1/embedding?node=A3&view=affiliation",
		"/v1/translate?node=A1&from=authorship&to=affiliation",
		"/v1/knn?node=A1&k=3",
		"/v1/knn?node=A1&k=3&exact=true",
		"/v1/knn?node=P2&k=5&ef=32",
		"/v1/model",
	}
	want := make(map[string][]byte)
	for _, p := range paths {
		want[p] = getBody(t, tsRef.URL+p, 200)
	}
	var prev map[string][]byte
	for _, withANN := range []bool{false, true} {
		sp := packSnapFile(t, m, dir, fmt.Sprintf("model-%v.snap", withANN), withANN)
		sv, err := New(Config{GraphPath: gp, ModelPath: sp})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(sv.Handler())
		got := make(map[string][]byte)
		for _, p := range paths {
			got[p] = getBody(t, ts.URL+p, 200)
			if string(got[p]) != string(want[p]) {
				t.Errorf("withANN=%v GET %s differs from the in-memory model:\nsnap:      %s\nin-memory: %s", withANN, p, got[p], want[p])
			}
			if prev != nil && string(got[p]) != string(prev[p]) {
				t.Errorf("GET %s differs between files with and without an ANN section:\nwith:    %s\nwithout: %s", p, got[p], prev[p])
			}
		}
		prev = got
		if sv.snapLoads.Value() != 1 {
			t.Errorf("snap.loads = %d, want 1", sv.snapLoads.Value())
		}
		ts.Close()
		sv.Shutdown()
	}
}

// TestKNNParams pins /v1/knn's ef and exact parameter contract: bad
// values are 400 bad_request, exact=true counts an exact fallback, and
// the default path counts ANN searches and distance evaluations.
func TestKNNParams(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	for _, bad := range []string{
		"/v1/knn?node=A1&ef=0",
		"/v1/knn?node=A1&ef=nope",
		"/v1/knn?node=A1&ef=-3",
		fmt.Sprintf("/v1/knn?node=A1&ef=%d", ann.MaxEf+1),
		"/v1/knn?node=A1&exact=banana",
	} {
		body := getBody(t, ts.URL+bad, 400)
		if want := `"code": "bad_request"`; !contains(body, want) {
			t.Errorf("GET %s: envelope %s does not carry %s", bad, body, want)
		}
	}

	getBody(t, ts.URL+"/v1/knn?node=A1&k=3&exact=true", 200)
	if got := sv.knnFallback.Value(); got != 1 {
		t.Fatalf("serve.knn.exact_fallback = %d, want 1", got)
	}
	if got := sv.annSearches.Value(); got != 0 {
		t.Fatalf("ann.searches = %d before any ann query", got)
	}
	getBody(t, ts.URL+"/v1/knn?node=A1&k=3&ef=16", 200)
	if got := sv.annSearches.Value(); got != 1 {
		t.Fatalf("ann.searches = %d, want 1", got)
	}
	if got := sv.annDistEvals.Value(); got <= 0 {
		t.Fatalf("ann.dist_evals = %d, want > 0", got)
	}
	if got := sv.knnFallback.Value(); got != 1 {
		t.Fatalf("serve.knn.exact_fallback moved to %d on the ann path", got)
	}
}

func contains(b []byte, sub string) bool {
	return len(sub) == 0 || len(b) >= len(sub) && stringsIndex(string(b), sub) >= 0
}

func stringsIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// syntheticModelFiles builds an untrained but structurally valid
// single-view model over a chain graph, large enough that its float
// tables dominate every fixed loading cost, and writes the graph TSV
// and a .snap file (with embedded ANN).
func syntheticModelFiles(t testing.TB, dir string, nodes, dim int) (gp, sp string, floatBytes uint64) {
	t.Helper()
	b := graph.NewBuilder()
	nt := b.NodeType("item")
	et := b.EdgeType("link")
	ids := make([]graph.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = b.AddNode(nt, fmt.Sprintf("n%06d", i))
	}
	for i := 1; i < nodes; i++ {
		b.AddEdge(ids[i-1], ids[i], et, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := transn.DefaultConfig()
	cfg.Dim = dim
	cfg.Seed = 7
	m, err := transn.FromExport(transn.Export{
		Cfg:    cfg,
		EmbIn:  []*mat.Dense{ann.RandomTable(nodes, dim, 11)},
		EmbOut: []*mat.Dense{ann.RandomTable(nodes, dim, 12)},
		TransW: [][2][]*mat.Dense{},
		TransB: [][2][]*mat.Dense{},
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	gp = writeGraphFile(t, dir, g)
	sp = packSnapFile(t, m, dir, "model.snap", true)
	// in + out + final tables, float64 each.
	floatBytes = uint64(3 * nodes * dim * 8)
	return gp, sp, floatBytes
}

// heapAllocs measures the heap bytes f allocates.
func heapAllocs(t *testing.T, f func() error) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapReloadAllocationBounded pins the O(header) reload contract
// (DESIGN.md §14): reloading from a mapped .snap must not
// re-materialize the model's float tables. The snap reload's
// allocations are bounded by the per-node index structures (norms, name
// maps) — a small fraction of the table bytes — regardless of Dim. A
// copying open of the same file (OpenOptions.NoMmap) calibrates the
// measurement: it decodes every table, so it must register at least the
// table bytes, or the bound below could not detect re-materialization.
func TestSnapReloadAllocationBounded(t *testing.T) {
	const nodes, dim = 3000, 256
	dir := t.TempDir()
	gp, sp, floatBytes := syntheticModelFiles(t, dir, nodes, dim)
	sv, err := New(Config{
		GraphPath: gp, ModelPath: sp,
		TraceDisabled: true, HistoryDisabled: true, RuntimePollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	if sv.snapMapped.Value() == 0 {
		t.Skip("snap file is not mmapped on this platform; the copying fallback re-materializes tables by design")
	}

	copyAllocs := heapAllocs(t, func() error {
		s, err := snapfmt.Open(sp, snapfmt.OpenOptions{NoMmap: true})
		if err != nil {
			return err
		}
		return s.Close()
	})
	snapAllocs := heapAllocs(t, sv.Reload)
	t.Logf("float tables = %d bytes; copying open = %d bytes; snap reload = %d bytes",
		floatBytes, copyAllocs, snapAllocs)
	if copyAllocs < floatBytes {
		t.Fatalf("copying open allocated %d bytes, below the %d-byte float tables — the measurement cannot detect re-materialization", copyAllocs, floatBytes)
	}
	if snapAllocs > floatBytes/4 {
		t.Fatalf("snap reload allocated %d bytes, more than a quarter of the %d-byte float tables — tables are being re-materialized", snapAllocs, floatBytes)
	}
}

// TestSnapReloadMidTraffic hot-reloads a snap-format server while k-NN
// and embedding traffic is in flight: every request must succeed and
// the generation must advance — no request may observe a torn snapshot
// or an unmapped table.
func TestSnapReloadMidTraffic(t *testing.T) {
	dir := t.TempDir()
	gp, sp, _ := writeModelFiles(t, dir, 1)
	sv, err := New(Config{GraphPath: gp, ModelPath: sp})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/v1/knn?node=A1&k=3", "/v1/embedding?node=P1"} {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						errCh <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errCh <- fmt.Errorf("GET %s = %d mid-reload", p, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := sv.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := sv.Generation(); got != 6 {
		t.Fatalf("generation = %d after 5 reloads, want 6", got)
	}
	if got := sv.snapLoads.Value(); got != 6 {
		t.Fatalf("snap.loads = %d, want 6", got)
	}
}

// TestCommittedFixtureServes boots the committed quickstart model file
// (testdata/quickstart.snap, the file the CI smoke jobs and API.md's
// examples serve) against its graph, so a fixture the current loader
// can no longer read fails here rather than only in CI. The fixture is
// written by `transn train -model` and so embeds an ANN section; at six
// nodes the index must agree with the exact scan.
func TestCommittedFixtureServes(t *testing.T) {
	sv, err := New(Config{
		GraphPath: filepath.Join("testdata", "quickstart.tsv"),
		ModelPath: filepath.Join("testdata", "quickstart.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	if len(sv.snap.Load().snapf.ANN()) == 0 {
		t.Fatal("committed fixture has no ANN section")
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var model ModelResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/model", 200), &model); err != nil {
		t.Fatal(err)
	}
	if model.Nodes != 6 || len(model.Views) != 3 || len(model.Pairs) != 2 {
		t.Fatalf("fixture shape: %d nodes, %d views, %d pairs; want 6, 3, 2", model.Nodes, len(model.Views), len(model.Pairs))
	}
	getBody(t, ts.URL+"/v1/translate?node=A1&from=authorship&to=affiliation", 200)
	var ann, exact KNNResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/knn?node=A1&k=5", 200), &ann); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/knn?node=A1&k=5&exact=true", 200), &exact); err != nil {
		t.Fatal(err)
	}
	if len(ann.Neighbors) != 5 || len(exact.Neighbors) != 5 {
		t.Fatalf("knn returned %d (ann) and %d (exact) neighbors, want 5", len(ann.Neighbors), len(exact.Neighbors))
	}
	for i := range ann.Neighbors {
		a, e := ann.Neighbors[i], exact.Neighbors[i]
		if a.Node != e.Node || math.Abs(a.Similarity-e.Similarity) > 1e-9 {
			t.Fatalf("neighbor %d: ann %+v, exact %+v", i, a, e)
		}
	}
}
