package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeDebugEndpoints(t *testing.T) {
	run := sampleRun()
	srv, addr, err := run.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	// /metrics serves a live report that passes schema validation.
	metrics := get("/metrics")
	if err := ValidateReport(metrics); err != nil {
		t.Fatalf("/metrics did not serve a valid report: %v\n%s", err, metrics)
	}
	if !strings.Contains(string(metrics), "skipgram.pairs") {
		t.Fatalf("/metrics missing registry counters:\n%s", metrics)
	}

	// expvar (Go runtime vars) and pprof are wired.
	if body := get("/debug/vars"); !strings.Contains(string(body), "memstats") {
		t.Fatal("/debug/vars missing memstats")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	run := NewRun()
	if _, _, err := run.ServeDebug("256.0.0.1:bad"); err == nil {
		t.Fatal("expected listen error")
	}
}
