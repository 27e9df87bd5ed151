package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transn/internal/graph"
	"transn/internal/obs"
	"transn/internal/transn"
)

// quickstartGraph builds the paper's Figure 2(a) academic network:
// three authors, two papers, a university; authorship, citation and
// affiliation views. Authorship×affiliation share {A1, A3};
// citation×affiliation share nothing (the untrained-pair error case).
func quickstartGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	univ := b.NodeType("university")
	authorship := b.EdgeType("authorship")
	citation := b.EdgeType("citation")
	affiliation := b.EdgeType("affiliation")
	a1 := b.AddNode(author, "A1")
	a2 := b.AddNode(author, "A2")
	a3 := b.AddNode(author, "A3")
	p1 := b.AddNode(paper, "P1")
	p2 := b.AddNode(paper, "P2")
	u1 := b.AddNode(univ, "U1")
	b.AddEdge(a1, p1, authorship, 1)
	b.AddEdge(a2, p1, authorship, 1)
	b.AddEdge(a3, p2, authorship, 1)
	b.AddEdge(p1, p2, citation, 1)
	b.AddEdge(a1, u1, affiliation, 1)
	b.AddEdge(a3, u1, affiliation, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// serveCfg is a fast deterministic training config for serving tests.
func serveCfg(seed int64) transn.Config {
	cfg := transn.DefaultConfig()
	cfg.Dim = 8
	cfg.WalkLength = 8
	cfg.MinWalksPerNode = 4
	cfg.MaxWalksPerNode = 8
	cfg.Iterations = 2
	cfg.CrossPathLen = 2
	cfg.CrossPathsPerPair = 10
	cfg.Workers = 1
	cfg.Seed = seed
	return cfg
}

// writeModelFiles trains a quickstart model with the given seed and
// writes the graph TSV + model file (transn.snap/v1 with an ANN
// section, as `transn train -model` writes it) into dir, returning the
// two paths and the in-memory model for byte-match assertions.
func writeModelFiles(t testing.TB, dir string, seed int64) (string, string, *transn.Model) {
	t.Helper()
	g := quickstartGraph(t)
	m, err := transn.Train(g, serveCfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	return writeGraphFile(t, dir, g), packSnapFile(t, m, dir, "model.snap", true), m
}

// writeGraphFile stores g as dir/graph.tsv and returns the path.
func writeGraphFile(t testing.TB, dir string, g *graph.Graph) string {
	t.Helper()
	gp := filepath.Join(dir, "graph.tsv")
	gf, err := os.Create(gp)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(gf, g); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	return gp
}

// newTestServer builds a Server over freshly trained snapshot files.
func newTestServer(t testing.TB, cfg Config) (*Server, *transn.Model) {
	t.Helper()
	dir := t.TempDir()
	gp, mp, m := writeModelFiles(t, dir, 1)
	cfg.GraphPath = gp
	cfg.ModelPath = mp
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sv.stopWatchdog()
		sv.stopHistory()
		sv.stopRuntime()
	})
	return sv, m
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.put("a", []float64{1})
	c.put("b", []float64{2})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; inserting c must evict b.
	c.put("c", []float64{3})
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if v, ok := c.get("a"); !ok || v[0] != 1 {
		t.Fatal("a lost")
	}
	if v, ok := c.get("c"); !ok || v[0] != 3 {
		t.Fatal("c lost")
	}
	// Updating an existing key replaces in place, no eviction.
	c.put("a", []float64{10})
	if v, _ := c.get("a"); v[0] != 10 {
		t.Fatal("update did not replace value")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// A disabled cache never stores.
	d := newLRU(-1)
	d.put("x", []float64{1})
	if _, ok := d.get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestCoalescerDedupes(t *testing.T) {
	coalesced := &obs.Counter{}
	c := newCoalescer(4, nil, coalesced)
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]float64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.do(nil, "same-key", func() ([]float64, error) {
				calls.Add(1)
				<-release
				return []float64{42}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every waiter reach do before releasing the leader.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", n)
	}
	for i, v := range results {
		if len(v) != 1 || v[0] != 42 {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	if n := coalesced.Value(); n != waiters-1 {
		t.Fatalf("coalesced counter = %d, want %d (every non-leader waiter)", n, waiters-1)
	}
}

func TestCoalescerBoundsConcurrency(t *testing.T) {
	const workers = 2
	c := newCoalescer(workers, nil, nil)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = c.do(nil, string(rune('a'+i)), func() ([]float64, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				cur.Add(-1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent computations, bound is %d", p, workers)
	}
}

func TestEndpointTimeout(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	h := sv.endpoint("test", http.MethodGet, 5*time.Millisecond, func(*snapshot, *http.Request) (any, error) {
		time.Sleep(300 * time.Millisecond)
		return nil, nil
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/slow", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Schema != ErrorSchema || env.Error.Code != CodeTimeout {
		t.Fatalf("envelope = %+v", env)
	}
}

// SnapshotFormat is deprecated: "" and "snap" both serve the .snap
// model file, and any other value — "gob" included — fails New with an
// error that says gob support is gone.
func TestDeprecatedSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	gp, mp, _ := writeModelFiles(t, dir, 1)
	for _, format := range []string{"", FormatSnap} {
		sv, err := New(Config{GraphPath: gp, ModelPath: mp, SnapshotFormat: format})
		if err != nil {
			t.Fatalf("SnapshotFormat %q: %v", format, err)
		}
		sv.Shutdown()
	}
	for _, format := range []string{"gob", "bogus"} {
		_, err := New(Config{GraphPath: gp, ModelPath: mp, SnapshotFormat: format})
		if err == nil || !strings.Contains(err.Error(), "gob support was removed") {
			t.Fatalf("SnapshotFormat %q: err = %v, want the removed-gob error", format, err)
		}
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	// Replace the model file with a corrupt one; reload must fail and
	// generation must stay. The replacement is renamed into place, the
	// way models are deployed: the live generation maps the old file.
	bad := sv.cfg.ModelPath + ".new"
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(bad, sv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	if err := sv.Reload(); err == nil {
		t.Fatal("Reload succeeded on a corrupt model")
	}
	if g := sv.Generation(); g != 1 {
		t.Fatalf("generation = %d after failed reload, want 1", g)
	}
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("serving broke after failed reload: %d %s", rec.Code, rec.Body)
	}
}

func TestDrainingFlipsReadiness(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", rec.Code)
	}
	if err := sv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeNotReady {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeNotReady)
	}
	// Liveness stays up through the drain.
	rec = httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", rec.Code)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	cases := []struct {
		name, method, target string
		status               int
		code                 string
	}{
		{"unknown node", http.MethodGet, "/v1/embedding?node=NOPE", 404, CodeUnknownNode},
		{"missing node param", http.MethodGet, "/v1/embedding", 400, CodeBadRequest},
		{"unknown view", http.MethodGet, "/v1/embedding?node=A1&view=bogus", 404, CodeUnknownView},
		{"node outside view", http.MethodGet, "/v1/embedding?node=U1&view=authorship", 404, CodeUnknownNode},
		{"same-view translate", http.MethodGet, "/v1/translate?node=A1&from=authorship&to=authorship", 400, CodeBadRequest},
		{"untrained pair", http.MethodGet, "/v1/translate?node=P1&from=citation&to=affiliation", 404, CodeUntrainedPair},
		{"bad k", http.MethodGet, "/v1/knn?node=A1&k=zero", 400, CodeBadRequest},
		{"k over cap", http.MethodGet, "/v1/knn?node=A1&k=1000000", 400, CodeBadRequest},
		{"wrong method", http.MethodPost, "/v1/embedding?node=A1", 405, CodeMethodNotAllowed},
		{"reload wrong method", http.MethodGet, "/admin/reload", 405, CodeMethodNotAllowed},
		{"unknown route", http.MethodGet, "/bogus", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(tc.method, tc.target, nil)
			req.Header.Set(HeaderRequestID, "env-"+tc.code)
			sv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("body is not an envelope: %v (%s)", err, rec.Body)
			}
			if env.Schema != ErrorSchema {
				t.Fatalf("schema = %q", env.Schema)
			}
			if env.Error.Code != tc.code || env.Error.Status != tc.status {
				t.Fatalf("error = %+v, want code %q status %d", env.Error, tc.code, tc.status)
			}
			// Satellite: every error envelope carries the correlation ID
			// the client supplied, and the header echoes it.
			if env.Error.RequestID != "env-"+tc.code {
				t.Fatalf("request_id = %q, want %q", env.Error.RequestID, "env-"+tc.code)
			}
			if got := rec.Header().Get(HeaderRequestID); got != "env-"+tc.code {
				t.Fatalf("response header %s = %q, want %q", HeaderRequestID, got, "env-"+tc.code)
			}
		})
	}
}

func TestServeMetricsFlow(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	do := func(target string) {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body)
		}
	}
	// Two identical translates: one miss then one hit.
	do("/v1/translate?node=A1&from=authorship&to=affiliation")
	do("/v1/translate?node=A1&from=authorship&to=affiliation")
	snap := sv.run.Reg.Snapshot()
	if snap.Counters[obs.MetricServeRequests] < 2 {
		t.Fatalf("requests = %d, want >= 2", snap.Counters[obs.MetricServeRequests])
	}
	if snap.Counters[obs.MetricServeCacheMisses] != 1 || snap.Counters[obs.MetricServeCacheHits] != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1",
			snap.Counters[obs.MetricServeCacheHits], snap.Counters[obs.MetricServeCacheMisses])
	}
	if snap.Gauges[obs.MetricServeSnapshotGen] != 1 {
		t.Fatalf("generation gauge = %v, want 1", snap.Gauges[obs.MetricServeSnapshotGen])
	}
	// The /metrics route exports the same registry as a valid report.
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if err := obs.ValidateReport(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics is not a valid report: %v", err)
	}
}
