package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"transn/internal/obs"
)

// traceTestConfig samples every request so trace assertions are
// deterministic.
func traceTestConfig() Config {
	return Config{TraceSampleRate: 1, TraceSlowThreshold: -1}
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	sv, _ := newTestServer(t, traceTestConfig())
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	id := rec.Header().Get(HeaderRequestID)
	if id == "" {
		t.Fatalf("no %s header on response", HeaderRequestID)
	}
	// The server-minted ID must be on the trace record too.
	dump := sv.traces.DumpRequests()
	if len(dump.Traces) != 1 || dump.Traces[0].ID != id {
		t.Fatalf("trace ring = %+v, want one record with id %q", dump.Traces, id)
	}

	// A client-supplied ID wins over minting.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil)
	req.Header.Set(HeaderRequestID, "client-7")
	sv.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get(HeaderRequestID); got != "client-7" {
		t.Fatalf("echoed id = %q, want client-7", got)
	}
	dump = sv.traces.DumpRequests()
	if n := len(dump.Traces); n != 2 || dump.Traces[1].ID != "client-7" {
		t.Fatalf("trace ring after second request = %+v", dump.Traces)
	}
}

func TestTraceRecordsServeStages(t *testing.T) {
	sv, _ := newTestServer(t, traceTestConfig())
	do := func(method, target string, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, rd))
		return rec
	}
	// Miss then hit on the same translate key, then a knn and an infer.
	if rec := do(http.MethodGet, "/v1/translate?node=A1&from=authorship&to=affiliation", ""); rec.Code != 200 {
		t.Fatalf("translate: %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodGet, "/v1/translate?node=A1&from=authorship&to=affiliation", ""); rec.Code != 200 {
		t.Fatalf("translate (row filled): %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodGet, "/v1/knn?node=A1&k=3", ""); rec.Code != 200 {
		t.Fatalf("knn: %d %s", rec.Code, rec.Body)
	}
	if rec := do(http.MethodPost, "/v1/infer", `{"edges":[{"neighbor":"P1","type":"authorship"}]}`); rec.Code != 200 {
		t.Fatalf("infer: %d %s", rec.Code, rec.Body)
	}
	dump := sv.traces.DumpRequests()
	if len(dump.Traces) != 4 {
		t.Fatalf("trace ring has %d records, want 4", len(dump.Traces))
	}
	miss, hit, knn, infer := dump.Traces[0], dump.Traces[1], dump.Traces[2], dump.Traces[3]
	for _, want := range []string{
		string(obs.TraceStageDecode), string(obs.TraceStageSnapshot),
		string(obs.TraceStageCache), string(obs.TraceStageForward),
		string(obs.TraceStageEncode),
	} {
		if _, ok := miss.Stages[want]; !ok {
			t.Fatalf("cold translate trace lacks stage %q: %+v", want, miss.Stages)
		}
	}
	if miss.CacheHit || miss.Coalesced {
		t.Fatalf("miss trace flags: %+v", miss)
	}
	if !hit.CacheHit || hit.Coalesced {
		t.Fatalf("second identical translate should hit the row table: %+v", hit)
	}
	if _, ok := hit.Stages[string(obs.TraceStageCache)]; !ok {
		t.Fatalf("row-table hit trace lacks the cache stage: %+v", hit.Stages)
	}
	if _, ok := hit.Stages[string(obs.TraceStageForward)]; ok {
		t.Fatal("row-table hit trace should have no forward stage")
	}
	for _, rec := range dump.Traces {
		if _, ok := rec.Stages[string(obs.TraceStageCoalesceWait)]; ok {
			t.Fatalf("%s trace records coalesce_wait, which no request waits in: %+v", rec.Endpoint, rec.Stages)
		}
	}
	for _, rec := range []obs.TraceRecord{knn, infer} {
		if _, ok := rec.Stages[string(obs.TraceStageForward)]; !ok {
			t.Fatalf("%s trace lacks forward stage: %+v", rec.Endpoint, rec.Stages)
		}
		if _, ok := rec.Stages[string(obs.TraceStageCache)]; ok || rec.CacheHit {
			t.Fatalf("%s trace should not touch the row table: %+v", rec.Endpoint, rec)
		}
	}
	for _, rec := range dump.Traces {
		if rec.Outcome != obs.TraceOutcomeOK || rec.Status != 200 || rec.Generation != 1 {
			t.Fatalf("record %+v, want ok/200/gen1", rec)
		}
	}
	// The dump round-trips through the schema validator.
	var buf bytes.Buffer
	if err := obs.WriteTraceDump(&buf, dump); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceDump(buf.Bytes()); err != nil {
		t.Fatalf("serve-produced dump fails validation: %v", err)
	}
}

// TestTimeoutMidForwardTrace is the timeout × tracing satellite: a
// request that deadlines while its forward stage is still running must
// yield a complete trace — timeout outcome, timeout code, and the
// in-flight forward stage recorded at its duration so far. The handler
// goroutine keeps running (and keeps touching the trace) after the
// middleware finalizes it; under -race this must stay clean.
func TestTimeoutMidForwardTrace(t *testing.T) {
	sv, _ := newTestServer(t, traceTestConfig())
	release := make(chan struct{})
	h := sv.endpoint("test", http.MethodGet, 20*time.Millisecond,
		func(_ *snapshot, r *http.Request) (any, error) {
			tr := traceFrom(r.Context())
			tr.StartStage(obs.TraceStageDecode)
			tr.EndStage(obs.TraceStageDecode)
			tr.StartStage(obs.TraceStageForward)
			<-release // still mid-forward when the deadline fires
			tr.EndStage(obs.TraceStageForward)
			tr.SetCacheHit() // late marks after Finish must be race-free
			return EmbeddingResponse{Schema: ErrorSchema}, nil
		})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/slow", nil)
	req.Header.Set(HeaderRequestID, "deadline-1")
	h.ServeHTTP(rec, req)
	close(release)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeTimeout || env.Error.RequestID != "deadline-1" {
		t.Fatalf("envelope error = %+v", env.Error)
	}
	dump := sv.traces.DumpRequests()
	if len(dump.Traces) != 1 {
		t.Fatalf("trace ring has %d records, want 1", len(dump.Traces))
	}
	tr := dump.Traces[0]
	if tr.ID != "deadline-1" || tr.Outcome != obs.TraceOutcomeTimeout ||
		tr.Status != 504 || tr.Code != CodeTimeout {
		t.Fatalf("trace = %+v, want deadline-1/timeout/504", tr)
	}
	fw, ok := tr.Stages[string(obs.TraceStageForward)]
	if !ok {
		t.Fatalf("timed-out trace lacks the in-flight forward stage: %+v", tr.Stages)
	}
	if fw < (10 * time.Millisecond).Seconds() {
		t.Fatalf("forward stage = %vs, want >= ~deadline (10ms)", fw)
	}
	if _, ok := tr.Stages[string(obs.TraceStageDecode)]; !ok {
		t.Fatalf("completed decode stage missing: %+v", tr.Stages)
	}
}

func TestDebugTraceEndpoints(t *testing.T) {
	cfg := traceTestConfig()
	cfg.TraceSlowThreshold = time.Nanosecond // everything is slow
	sv, _ := newTestServer(t, cfg)
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
	if rec.Code != 200 {
		t.Fatalf("embedding: %d", rec.Code)
	}
	for path, ring := range map[string]string{
		"/debug/requests": obs.TraceRingRequests,
		"/debug/slow":     obs.TraceRingSlow,
	} {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		if err := obs.ValidateTraceDump(rec.Body.Bytes()); err != nil {
			t.Fatalf("%s dump invalid: %v", path, err)
		}
		var d obs.TraceDump
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if d.Ring != ring || len(d.Traces) == 0 {
			t.Fatalf("%s: ring %q with %d traces, want %q non-empty", path, d.Ring, len(d.Traces), ring)
		}
	}
	// Wrong method gets the envelope discipline.
	rec = httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/requests", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/requests = %d, want 405", rec.Code)
	}
}

func TestDebugTraceEndpointsDisabled(t *testing.T) {
	sv, _ := newTestServer(t, Config{TraceDisabled: true})
	for _, path := range []string{"/debug/requests", "/debug/slow"} {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s with tracing disabled = %d, want 404", path, rec.Code)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != CodeNotFound {
			t.Fatalf("code = %q", env.Error.Code)
		}
	}
	// API requests still work, with no minted correlation ID.
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
	if rec.Code != 200 {
		t.Fatalf("embedding with tracing disabled: %d", rec.Code)
	}
	if id := rec.Header().Get(HeaderRequestID); id != "" {
		t.Fatalf("disabled tracing minted id %q", id)
	}
}

func TestAccessAndSlowLogs(t *testing.T) {
	var buf bytes.Buffer
	cfg := traceTestConfig()
	cfg.TraceSlowThreshold = time.Nanosecond // every request logs slow
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	sv, _ := newTestServer(t, cfg)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/knn?node=A1&k=2", nil)
	req.Header.Set(HeaderRequestID, "log-1")
	sv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("knn: %d %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want access + slow:\n%s", len(lines), buf.String())
	}
	var access, slow map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &access); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &slow); err != nil {
		t.Fatal(err)
	}
	if access["level"] != "INFO" || access["msg"] != "request" {
		t.Fatalf("access line = %v", access)
	}
	for _, key := range []string{
		obs.LogKeyRequestID, obs.LogKeyEndpoint, obs.LogKeyMethod, obs.LogKeyPath,
		obs.LogKeyStatus, obs.LogKeyOutcome, obs.LogKeyDurationMS,
	} {
		if _, ok := access[key]; !ok {
			t.Fatalf("access log lacks %q: %v", key, access)
		}
	}
	if access[obs.LogKeyRequestID] != "log-1" || access[obs.LogKeyEndpoint] != "knn" {
		t.Fatalf("access fields = %v", access)
	}
	if slow["level"] != "WARN" || slow["msg"] != "slow request" {
		t.Fatalf("slow line = %v", slow)
	}
	stages, ok := slow[obs.LogKeyStages].(map[string]any)
	if !ok {
		t.Fatalf("slow log lacks stages group: %v", slow)
	}
	if _, ok := stages[string(obs.TraceStageForward)]; !ok {
		t.Fatalf("slow log stages lack forward: %v", stages)
	}
}

// TestDisabledTracingZeroAlloc is the acceptance pin: with tracing
// disabled and no logger, everything the tracing feature added to the
// per-request middleware path — ID settlement, trace begin/finish,
// stage marks, logging — performs zero heap allocations.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	sv, _ := newTestServer(t, Config{TraceDisabled: true})
	r := httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		start := time.Now()
		tr, id := sv.beginTrace(r, "embedding")
		tr.StartStage(obs.TraceStageSnapshot)
		tr.SetGeneration(1)
		tr.EndStage(obs.TraceStageSnapshot)
		tr.StartStage(obs.TraceStageDecode)
		tr.EndStage(obs.TraceStageDecode)
		tr.StartStage(obs.TraceStageForward)
		tr.EndStage(obs.TraceStageForward)
		tr.SetCacheHit()
		tr.StartStage(obs.TraceStageEncode)
		tr.EndStage(obs.TraceStageEncode)
		sv.finishTrace(r, tr, id, "embedding", obs.TraceOutcomeOK, 200, "", time.Since(start))
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v per request, want 0", allocs)
	}
}

// benchEndpoint measures the full middleware + handler path; compare
// the Enabled and Disabled variants to see the tracing overhead.
func benchEndpoint(b *testing.B, cfg Config) {
	sv, _ := newTestServer(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkEndpointTracingDisabled(b *testing.B) {
	benchEndpoint(b, Config{TraceDisabled: true})
}

func BenchmarkEndpointTracingEnabled(b *testing.B) {
	benchEndpoint(b, Config{TraceSampleRate: 1})
}

// BenchmarkTranslateEndpoint measures /v1/translate through the full
// middleware with tracing off: "hit" reads a row already in the
// snapshot's table, "miss" clears the slot before every request so
// each one runs the forward pass and publishes the row.
func BenchmarkTranslateEndpoint(b *testing.B) {
	const target = "/v1/translate?node=A1&from=authorship&to=affiliation"
	for _, miss := range []bool{false, true} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			sv, _ := newTestServer(b, Config{TraceDisabled: true})
			slot := a1Slot(sv.snap.Load())
			serve := func() {
				rec := httptest.NewRecorder()
				sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != 200 {
					b.Fatalf("status %d", rec.Code)
				}
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if miss {
					slot.Store(nil)
				}
				serve()
			}
		})
	}
}
