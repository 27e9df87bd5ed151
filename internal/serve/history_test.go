package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transn/internal/obs"
)

func floatPtr(v float64) *float64 { return &v }

func TestDebugHistoryEndpoint(t *testing.T) {
	sv, _ := newTestServer(t, Config{HistoryFineInterval: 5 * time.Millisecond})

	// A little traffic so the curves carry signal. The sampler may
	// already have run, so count samples from here on.
	taken := sv.history.Dump().Resolutions[0].Taken
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("embedding request = %d", rec.Code)
		}
	}

	// Wait for the sampler to take at least two fine samples (a delta)
	// after the traffic.
	deadline := time.Now().Add(5 * time.Second)
	for sv.history.Dump().Resolutions[0].Taken < taken+2 {
		if time.Now().After(deadline) {
			t.Fatal("fine sampler took no samples")
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/history", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/history = %d, body %s", rec.Code, rec.Body.String())
	}
	body, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateHistoryDump(body); err != nil {
		t.Fatalf("served dump invalid: %v", err)
	}
	var dump obs.HistoryDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	fine := dump.Resolutions[0]
	series, ok := fine.Counters[obs.MetricServeRequests]
	if !ok || len(series) == 0 {
		t.Fatal("dump has no serve.requests series")
	}
	if series[len(series)-1] < 3 {
		t.Fatalf("newest serve.requests reading = %d, want >= 3", series[len(series)-1])
	}
	if _, ok := fine.Quantiles[obs.MetricServeLatency]; !ok {
		t.Fatal("dump has no latency quantile series")
	}
	// Runtime gauges are registered before the history resolves its set.
	if _, ok := fine.Gauges[obs.MetricRuntimeHeapAlloc]; !ok {
		t.Fatal("dump does not track the runtime heap gauge")
	}
	// So are the watchdog's own metrics.
	if _, ok := fine.Counters[obs.MetricWatchTrips]; !ok {
		t.Fatal("dump does not track watch.trips")
	}

	// Non-GET is rejected with the standard error envelope.
	rec = httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/history", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/history = %d, want 405", rec.Code)
	}
}

func TestDebugHistoryDisabled(t *testing.T) {
	sv, _ := newTestServer(t, Config{HistoryDisabled: true})
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/history", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/history on a disabled recorder = %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "disabled") {
		t.Fatalf("404 body does not explain: %s", rec.Body.String())
	}
}

func TestWatchRulesRequireHistory(t *testing.T) {
	dir := t.TempDir()
	gp, mp, _ := writeModelFiles(t, dir, 1)
	_, err := New(Config{
		GraphPath: gp, ModelPath: mp,
		HistoryDisabled: true,
		WatchRules: &obs.WatchConfig{Rules: []obs.WatchRule{
			{Name: "r", WindowSeconds: 60, MaxHeapBytes: floatPtr(1)},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "history") {
		t.Fatalf("watchdog without history: err = %v, want history-recorder error", err)
	}
}

// TestWatchdogDegradesReadyzAndCapturesBundle boots a server with an
// impossible heap budget (1 byte): the runtime poller publishes the
// real heap size synchronously at startup, so the rule must trip as
// soon as the recorder holds a judgeable window. The trip must surface
// in /readyz's degraded detail and leave a complete anomaly bundle.
func TestWatchdogDegradesReadyzAndCapturesBundle(t *testing.T) {
	anomalyDir := t.TempDir()
	sv, _ := newTestServer(t, Config{
		HistoryFineInterval: 5 * time.Millisecond,
		WatchInterval:       5 * time.Millisecond,
		WatchRules: &obs.WatchConfig{Rules: []obs.WatchRule{
			{Name: "impossible-heap", WindowSeconds: 60, MaxHeapBytes: floatPtr(1)},
		}},
		AnomalyDir:      anomalyDir,
		AnomalyCooldown: time.Hour,
	})

	deadline := time.Now().Add(5 * time.Second)
	for len(sv.watchdog.Degraded()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("impossible heap rule never tripped")
		}
		time.Sleep(time.Millisecond)
	}

	// /readyz stays 200 (degraded is a quality signal, not a routing
	// decision) and carries the tripped rule's name.
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 while degraded", rec.Code)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready {
		t.Fatal("degraded server reported not ready")
	}
	if len(ready.Degraded) != 1 || ready.Degraded[0] != "impossible-heap" {
		t.Fatalf("readyz degraded = %v, want [impossible-heap]", ready.Degraded)
	}

	// The trip captured a bundle with profiles and dumps. The capture
	// runs on the watchdog goroutine, so poll for its completion marker
	// (the last extra written, slow.json).
	var bundle string
	for bundle == "" {
		if time.Now().After(deadline) {
			t.Fatal("no anomaly bundle appeared")
		}
		entries, err := os.ReadDir(anomalyDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "anomaly-") {
				if _, err := os.Stat(filepath.Join(anomalyDir, e.Name(), "slow.json")); err == nil {
					bundle = filepath.Join(anomalyDir, e.Name())
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.HasSuffix(bundle, "-impossible-heap") {
		t.Fatalf("bundle dir %q not named after the rule", bundle)
	}
	for _, name := range []string{"watchdog.json", "heap.pprof", "goroutine.pprof", "history.json", "slow.json"} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", name)
		}
	}
	// Files land by rename, so none of their temp files is left over.
	entries, err := os.ReadDir(bundle)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("bundle holds leftover temp file %s", e.Name())
		}
	}
	data, err := os.ReadFile(filepath.Join(bundle, "watchdog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ev obs.WatchEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Rule != "impossible-heap" || ev.Code != obs.WatchCodeHeap || ev.Observed <= ev.Budget {
		t.Fatalf("watchdog.json = %+v, want a heap-ceiling violation", ev)
	}
	history, err := os.ReadFile(filepath.Join(bundle, "history.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateHistoryDump(history); err != nil {
		t.Fatalf("bundled history dump invalid: %v", err)
	}
}

// TestRuntimePollCleanStop pins the -runtime-poll contract: a positive
// interval polls and stops cleanly, and Shutdown stops every background
// sampler (runtime poller, history, watchdog) exactly once.
func TestRuntimePollCleanStop(t *testing.T) {
	sv, _ := newTestServer(t, Config{
		RuntimePollInterval: 2 * time.Millisecond,
		HistoryFineInterval: 2 * time.Millisecond,
		WatchInterval:       2 * time.Millisecond,
		WatchRules: &obs.WatchConfig{Rules: []obs.WatchRule{
			{Name: "r", WindowSeconds: 60, MaxHeapBytes: floatPtr(1)},
		}},
	})
	// The poller publishes a first reading synchronously.
	dump := sv.history.Dump()
	if _, ok := dump.Resolutions[0].Gauges[obs.MetricRuntimeGoroutines]; !ok {
		t.Fatal("runtime gauges not tracked by the recorder")
	}
	if err := sv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	taken := sv.history.Dump().Resolutions[0].Taken
	time.Sleep(10 * time.Millisecond)
	if got := sv.history.Dump().Resolutions[0].Taken; got != taken {
		t.Fatalf("history sampler survived Shutdown: taken %d -> %d", taken, got)
	}
	// The stop functions are idempotent: the test cleanup calls them again.
}
