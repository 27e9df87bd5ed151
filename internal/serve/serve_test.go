package serve

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// A reload from a bad model file must fail, leave the generation where
// it was and keep the old snapshot answering. Each replacement is
// renamed into place, the way models are deployed: the live generation
// maps the old file. The error cites the SNAPSHOT.md section the file
// breaks.
func TestReloadFailureKeepsServing(t *testing.T) {
	for _, tc := range []struct {
		name, section string
		corrupt       func(good []byte) []byte
	}{
		{"not a snapshot", "§2", func([]byte) []byte { return []byte("not a snapshot") }},
		{"truncated", "§2.4", func(b []byte) []byte { return b[:len(b)-100] }},
		{"bit flipped", "§9", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"wrong version", "§2.2", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], 2); return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv, _ := newTestServer(t, Config{})
			good, err := os.ReadFile(sv.cfg.ModelPath)
			if err != nil {
				t.Fatal(err)
			}
			bad := sv.cfg.ModelPath + ".new"
			if err := os.WriteFile(bad, tc.corrupt(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(bad, sv.cfg.ModelPath); err != nil {
				t.Fatal(err)
			}
			err = sv.Reload()
			if err == nil {
				t.Fatal("Reload succeeded on a corrupt model")
			}
			if !strings.Contains(err.Error(), "SNAPSHOT.md "+tc.section+")") {
				t.Errorf("Reload error %q does not cite SNAPSHOT.md %s", err, tc.section)
			}
			if g := sv.Generation(); g != 1 {
				t.Fatalf("generation = %d after failed reload, want 1", g)
			}
			for _, url := range []string{"/v1/embedding?node=A1", "/v1/knn?node=A1&k=2"} {
				rec := httptest.NewRecorder()
				sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s after failed reload: %d %s", url, rec.Code, rec.Body)
				}
			}
		})
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
		// msg, when set, pins the envelope's message text.
		msg string
	}{
		{"unknown node", http.MethodGet, "/v1/embedding?node=NOPE", 404, CodeUnknownNode, ""},
		{"missing node param", http.MethodGet, "/v1/embedding", 400, CodeBadRequest, ""},
		{"unknown view", http.MethodGet, "/v1/embedding?node=A1&view=bogus", 404, CodeUnknownView, ""},
		{"node outside view", http.MethodGet, "/v1/embedding?node=U1&view=authorship", 404, CodeUnknownNode, ""},
		{"same-view translate", http.MethodGet, "/v1/translate?node=A1&from=authorship&to=authorship", 400, CodeBadRequest, ""},
		{"untrained pair", http.MethodGet, "/v1/translate?node=P1&from=citation&to=affiliation", 404, CodeUntrainedPair, ""},
		// P1 is in authorship but not in affiliation: the row table has
		// no slot for it, and the message is the one the translator's
		// own check has always produced.
		{"translate node outside from view", http.MethodGet, "/v1/translate?node=P1&from=affiliation&to=authorship", 404, CodeUnknownNode,
			"transn: translate: node 3 is not in view 2"},
		{"bad k", http.MethodGet, "/v1/knn?node=A1&k=zero", 400, CodeBadRequest, ""},
		{"k over cap", http.MethodGet, "/v1/knn?node=A1&k=1000000", 400, CodeBadRequest, ""},
		{"k one over cap", http.MethodGet, "/v1/knn?node=A1&k=101", 400, CodeBadRequest,
			"k=101 exceeds the server cap of 100"},
		{"wrong method", http.MethodPost, "/v1/embedding?node=A1", 405, CodeMethodNotAllowed, ""},
		{"reload wrong method", http.MethodGet, "/admin/reload", 405, CodeMethodNotAllowed, ""},
		{"unknown route", http.MethodGet, "/bogus", 404, CodeNotFound, ""},
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
			if tc.msg != "" && env.Error.Message != tc.msg {
				t.Fatalf("message = %q, want %q", env.Error.Message, tc.msg)
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
	// k at the cap is served.
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/knn?node=A1&k=100", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("k=100: status = %d, want 200 (body %s)", rec.Code, rec.Body)
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
