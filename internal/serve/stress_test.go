package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"transn/internal/obs"
	"transn/internal/rngstream"
)

// TestServeStressRowTableAcrossReloads hammers the translated-row table
// from many goroutines while another goroutine hot-swaps the snapshot
// over and over. Every swap brings an empty table, and the translate
// key set is small, so concurrent clients keep missing on the same rows
// and racing to publish them across generation boundaries — the
// table/reload interaction the e2e test's modest traffic never reaches.
// Run under -race this is the serving path's data-race sweep (CI's
// race-full job); the functional assertions are zero non-2xx responses
// and a live table whose every filled row is bit-identical to a fresh
// forward pass.
func TestServeStressRowTableAcrossReloads(t *testing.T) {
	sv, _ := newTestServer(t, Config{})
	h := sv.Handler()

	clients, opsPerClient, reloads := 12, 150, 25
	if testing.Short() {
		clients, opsPerClient, reloads = 4, 40, 8
	}

	// A small rotating target set: repeated translate keys collide on
	// the same rows, and infer adds POST traffic.
	getTargets := []string{
		"/v1/embedding?node=A1",
		"/v1/embedding?node=A2",
		"/v1/embedding?node=A3&view=affiliation",
		"/v1/translate?node=A1&from=authorship&to=affiliation",
		"/v1/translate?node=A3&from=authorship&to=affiliation",
		"/v1/translate?node=A1&from=affiliation&to=authorship",
		"/v1/knn?node=A1&k=2",
		"/v1/knn?node=A2&k=3",
		"/v1/model",
	}
	inferBodies := []string{
		`{"edges":[{"neighbor":"P1","type":"authorship"}]}`,
		`{"edges":[{"neighbor":"U1","type":"affiliation","weight":2}]}`,
		`{"edges":[{"neighbor":"P1","type":"authorship"},{"neighbor":"U1","type":"affiliation"}]}`,
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		firstErr sync.Once
		errMsg   atomic.Value
	)
	record := func(format string, args ...any) {
		failures.Add(1)
		firstErr.Do(func() { errMsg.Store(fmt.Sprintf(format, args...)) })
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rngstream.New(7, int64(c))
			for i := 0; i < opsPerClient; i++ {
				var rec *httptest.ResponseRecorder
				if rng.Intn(4) == 0 {
					body := inferBodies[rng.Intn(len(inferBodies))]
					rec = httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
				} else {
					target := getTargets[rng.Intn(len(getTargets))]
					rec = httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				}
				if rec.Code != http.StatusOK {
					record("client %d op %d: %d %s", c, i, rec.Code, rec.Body)
					return
				}
			}
		}(c)
	}

	// The reload goroutine swaps generations as fast as it can while
	// the clients run: every swap drops a fresh empty row table in and
	// leaves in-flight requests on the old snapshot.
	reloadDone := make(chan int, 1)
	go func() {
		n := 0
		for r := 0; r < reloads; r++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
			if rec.Code != http.StatusOK {
				record("reload %d: %d %s", r, rec.Code, rec.Body)
				break
			}
			n++
		}
		reloadDone <- n
	}()

	wg.Wait()
	okReloads := <-reloadDone
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failed requests under stress; first: %s", n, errMsg.Load())
	}
	if okReloads != reloads {
		t.Fatalf("only %d/%d reloads succeeded", okReloads, reloads)
	}
	if gen := sv.Generation(); gen != uint64(1+reloads) {
		t.Fatalf("generation = %d after %d reloads, want %d", gen, reloads, 1+reloads)
	}
	live := sv.snap.Load()
	for p, pr := range live.frozen.ViewPairs() {
		for side, from := range [2]int{pr.I, pr.J} {
			to := pr.I + pr.J - from
			for l := range live.rows[p][side] {
				row := live.rows[p][side][l].Load()
				if row == nil {
					continue
				}
				want, err := live.frozen.TranslateNode(from, to, live.frozen.Views()[from].Global(l))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits((*row)[i]) != math.Float64bits(want[i]) {
						t.Fatalf("pair %d side %d row %d differs from a fresh forward pass at %d", p, side, l, i)
					}
				}
			}
		}
	}

	// Telemetry stayed coherent: request accounting covers the traffic,
	// nothing tripped the error counter, and the row-table counters are
	// visible for the load harness to scrape.
	snap := sv.run.Reg.Snapshot()
	wantReqs := int64(clients*opsPerClient + reloads)
	if got := snap.Counters[obs.MetricServeRequests]; got < wantReqs {
		t.Fatalf("serve.requests = %d, want >= %d", got, wantReqs)
	}
	if got := snap.Counters[obs.MetricServeErrors]; got != 0 {
		t.Fatalf("serve.errors = %d, want 0", got)
	}
	if got := snap.Counters[obs.MetricServeReloads]; got != int64(reloads) {
		t.Fatalf("serve.reloads = %d, want %d", got, reloads)
	}
	misses := snap.Counters[obs.MetricServeCacheMisses]
	if misses == 0 {
		t.Fatal("no row-table misses recorded; the stress mix never computed anything")
	}

	// Drain the endpoint-timeout goroutines the middleware spawned: a
	// final serial pass keeps -race happy about anything still finishing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/embedding?node=A1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-stress request failed: %d", rec.Code)
	}
}

// TestServeStressSameKeyAcrossReload aims every client at one translate
// key while reloads swap the snapshot beneath them, maximizing the
// window where concurrent misses on generation g race to publish the
// same row while generation g+1 is already live. Every response must
// still be a 200 with a full-dimension embedding.
func TestServeStressSameKeyAcrossReload(t *testing.T) {
	sv, m := newTestServer(t, Config{})
	h := sv.Handler()
	const target = "/v1/translate?node=A1&from=authorship&to=affiliation"

	clients, ops, reloads := 8, 60, 12
	if testing.Short() {
		clients, ops, reloads = 4, 20, 4
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"embedding"`) {
					bad.Add(1)
					return
				}
			}
		}()
	}
	for r := 0; r < reloads; r++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: %d %s", r, rec.Code, rec.Body)
		}
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d bad responses on the shared key across reloads", n)
	}
	// The model dimension survived every swap (same files, same shape).
	if dim := m.Cfg.Dim; dim <= 0 {
		t.Fatalf("model dim = %d", dim)
	}
}
