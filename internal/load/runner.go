package load

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"transn/internal/obs"
	"transn/internal/rngstream"
)

// Profile configures one load run.
type Profile struct {
	// Target is the base URL of the server under test, e.g.
	// "http://127.0.0.1:8099" (no trailing slash).
	Target string
	// Rate is the offered open-loop arrival rate in requests/second.
	Rate float64
	// Duration is the measured window; Warmup is an initial window
	// whose requests are sent but excluded from the report (cold
	// caches, connection setup and scheduler jitter settle there).
	Duration time.Duration
	Warmup   time.Duration
	// Mix is the endpoint distribution; nil means DefaultMix.
	Mix Mix
	// Seed makes the workload deterministic: arrivals, endpoint picks
	// and request arguments all derive from it.
	Seed int64
	// Reloads is how many POST /admin/reload requests to issue, evenly
	// spaced across the measured window, to exercise hot reload under
	// live traffic. Zero disables.
	Reloads int
	// Name labels the report; empty means "load".
	Name string
}

const (
	// requestTimeout is the per-request client timeout.
	requestTimeout = 10 * time.Second
	// tailN is how many of the slowest measured requests the report's
	// tail section joins against the server's trace rings.
	tailN = 10
)

// withDefaults fills zero-value fields with their documented defaults.
func (p Profile) withDefaults() Profile {
	if p.Mix == nil {
		p.Mix = DefaultMix()
	}
	if p.Name == "" {
		p.Name = "load"
	}
	return p
}

// latencyBounds are the histogram bucket upper bounds (seconds) for
// per-endpoint latency: 100µs to 2.5s, roughly log-spaced, matching the
// server's own serve.latency_seconds resolution at the fast end.
var latencyBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// latencyMetric maps an endpoint to its registered histogram name.
func latencyMetric(ep Endpoint) string {
	switch ep {
	case EndpointEmbedding:
		return obs.MetricLoadLatencyEmbedding
	case EndpointTranslate:
		return obs.MetricLoadLatencyTranslate
	case EndpointKNN:
		return obs.MetricLoadLatencyKNN
	case EndpointInfer:
		return obs.MetricLoadLatencyInfer
	}
	panic(fmt.Sprintf("load: unknown endpoint %q", ep))
}

// scheduledReq is one fully materialized request of the open-loop
// schedule: when to fire (offset from run start) and what to send.
type scheduledReq struct {
	at       time.Duration
	id       string // correlation ID sent as X-Transn-Request-Id
	ep       Endpoint
	method   string
	target   string
	body     string
	measured bool // scheduled inside the measured window (past warmup)
}

// result is what a request goroutine hands the collector.
type result struct {
	id        string
	ep        Endpoint
	latency   time.Duration // from the *scheduled* instant to response
	completed time.Duration // completion offset from run start
	ok        bool
	code      string // envelope code (or "transport") when !ok
	measured  bool
}

// epAgg is the collector's per-endpoint accumulator.
type epAgg struct {
	local    *obs.LocalHist
	hist     *obs.Histogram
	sent     int64
	ok       int64
	errs     int64
	maxSec   float64
	totalSec float64
}

// Run executes the profile against the target and returns its report.
// The request schedule is generated up front from the profile seed, so
// the offered workload is a pure function of the profile; everything
// measured is the server's doing. Run blocks until every request has
// completed or timed out.
func Run(p Profile, inv *Inventory) (*Report, error) {
	p = p.withDefaults()
	if p.Target == "" {
		return nil, fmt.Errorf("load: empty target")
	}
	if p.Rate <= 0 {
		return nil, fmt.Errorf("load: rate must be positive, got %v", p.Rate)
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("load: duration must be positive, got %v", p.Duration)
	}
	if p.Warmup < 0 {
		return nil, fmt.Errorf("load: warmup must be non-negative, got %v", p.Warmup)
	}
	if p.Reloads < 0 {
		return nil, fmt.Errorf("load: reloads must be non-negative, got %v", p.Reloads)
	}
	active := p.Mix.active()
	if len(active) == 0 {
		return nil, fmt.Errorf("load: mix has no endpoint with positive weight")
	}
	for _, ep := range active {
		if !inv.Supports(ep) {
			return nil, fmt.Errorf("load: mix requests %q but the graph has no valid %q targets (no overlapping views)", ep, ep)
		}
	}
	target := strings.TrimRight(p.Target, "/")

	// Materialize the whole schedule before the clock starts: stream 0
	// drives arrivals, stream 1 drives endpoint choice and arguments.
	window := p.Warmup + p.Duration
	offsets := Arrivals(rngstream.New(p.Seed, 0), p.Rate, window)
	work := rngstream.New(p.Seed, 1)
	sched := make([]scheduledReq, len(offsets))
	for i, at := range offsets {
		ep := p.Mix.pick(work)
		method, tgt, body := inv.request(work, ep)
		// Deterministic correlation IDs: the same profile replays the
		// same ID stream, so tail joins are reproducible run to run.
		sched[i] = scheduledReq{at: at, id: fmt.Sprintf("load%d-%06d", p.Seed, i),
			ep: ep, method: method, target: tgt,
			body: body, measured: at >= p.Warmup}
	}

	run := obs.NewRun()
	offered := run.Reg.Counter(obs.MetricLoadOffered)
	sentC := run.Reg.Counter(obs.MetricLoadSent)
	errC := run.Reg.Counter(obs.MetricLoadErrors)
	aggs := map[Endpoint]*epAgg{}
	for _, ep := range active {
		h := run.Reg.Histogram(latencyMetric(ep), latencyBounds)
		aggs[ep] = &epAgg{hist: h, local: h.Local()}
	}

	client := &http.Client{Timeout: requestTimeout}
	before, _ := scrapeMetrics(client, target) // nil on failure: optional

	// The collector goroutine single-threads all accounting, so the
	// shard-local histograms and max/sum tracking need no locks.
	results := make(chan result, 256)
	collectDone := make(chan collectOut, 1)
	go collect(results, aggs, window, collectDone)

	reloadDone := make(chan reloadOut, 1)
	start := time.Now()
	go runReloads(client, target, p, run, start, reloadDone)

	// The warmup span ends (and the measure span begins) when the
	// schedule crosses the warmup boundary.
	warm := run.Trace.Start(obs.SpanLoadWarmup)
	var measure *obs.ActiveSpan
	if p.Warmup == 0 {
		warm.End()
		warm, measure = nil, run.Trace.Start(obs.SpanLoadMeasure)
	}

	var wg sync.WaitGroup
	for _, sr := range sched {
		if d := sr.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if warm != nil && sr.measured {
			warm.End()
			warm, measure = nil, run.Trace.Start(obs.SpanLoadMeasure)
		}
		offered.Add(1)
		sr := sr
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- fire(client, target, sr, start)
		}()
	}
	// Drain: every launched request completes (or times out via the
	// client), then the collector finalizes.
	wg.Wait()
	close(results)
	if warm != nil {
		warm.End() // schedule never reached the measured window
	}
	if measure != nil {
		measure.End()
	}
	rl := <-reloadDone
	out := <-collectDone
	sentC.Add(out.sent)
	errC.Add(out.errors)

	after, _ := scrapeMetrics(client, target)

	rep := &Report{
		Schema:          BenchSchema,
		Name:            p.Name,
		Target:          target,
		Seed:            p.Seed,
		Mix:             p.Mix.String(),
		OfferedRate:     p.Rate,
		WarmupSeconds:   p.Warmup.Seconds(),
		DurationSeconds: p.Duration.Seconds(),
		Sent:            out.sent,
		OK:              out.ok,
		Errors:          out.errors,
		Endpoints:       map[string]EndpointStats{},
		ErrorsByCode:    out.byCode,
		Reloads:         p.Reloads,
		ReloadsOK:       rl.ok,
	}
	if out.sent > 0 {
		rep.ErrorRate = float64(out.errors) / float64(out.sent)
	}
	rep.AchievedRate = float64(out.completedInWindow) / p.Duration.Seconds()
	for _, ep := range active {
		a := aggs[ep]
		a.local.Flush()
		snap := a.hist.Snapshot()
		es := EndpointStats{
			Sent:       a.sent,
			OK:         a.ok,
			Errors:     a.errs,
			MaxSeconds: a.maxSec,
			Histogram:  snap,
		}
		if a.sent > 0 {
			es.P50Seconds = snap.Quantile(0.50)
			es.P90Seconds = snap.Quantile(0.90)
			es.P99Seconds = snap.Quantile(0.99)
			es.MeanSeconds = a.totalSec / float64(a.sent)
		}
		rep.Endpoints[string(ep)] = es
	}
	if before != nil && after != nil {
		rep.Server = serverDelta(before, after)
	}
	rep.Tail = buildTail(tailN, out.slowest, fetchServerTraces(client, target))
	rep.History = fetchHistoryDump(client, target)
	return rep, nil
}

// collectOut is the collector's final tally.
type collectOut struct {
	sent, ok, errors  int64
	completedInWindow int64
	byCode            map[string]int64
	slowest           []result // the tailN slowest measured requests, slowest first
}

// collect drains the results channel, folding measured-window requests
// into the per-endpoint accumulators. Warmup results contribute to
// nothing — they exist so their load lands on the server before
// measurement starts. completedInWindow counts measured requests whose
// *response* also arrived before the window closed: on a saturated
// server responses pile up past the end of the window, which is exactly
// how achieved rate falls below offered rate.
func collect(results <-chan result, aggs map[Endpoint]*epAgg, window time.Duration, done chan<- collectOut) {
	out := collectOut{byCode: map[string]int64{}}
	slow := &slowTracker{n: tailN}
	for r := range results {
		if !r.measured {
			continue
		}
		slow.add(r)
		a := aggs[r.ep]
		sec := r.latency.Seconds()
		a.local.Observe(sec)
		a.sent++
		a.totalSec += sec
		if sec > a.maxSec {
			a.maxSec = sec
		}
		out.sent++
		if r.ok {
			a.ok++
			out.ok++
		} else {
			a.errs++
			out.errors++
			out.byCode[r.code]++
		}
		if r.completed >= 0 && r.completed <= window {
			out.completedInWindow++
		}
	}
	out.slowest = slow.reqs
	done <- out
}

// fire sends one scheduled request and classifies the outcome. Latency
// runs from the scheduled instant (sr.at after start), not the actual
// send, so scheduler lag and queueing both count against the server —
// the open-loop contract.
func fire(client *http.Client, base string, sr scheduledReq, start time.Time) result {
	res := result{id: sr.id, ep: sr.ep, measured: sr.measured}
	var req *http.Request
	var err error
	if sr.body != "" {
		req, err = http.NewRequest(sr.method, base+sr.target, strings.NewReader(sr.body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(sr.method, base+sr.target, nil)
	}
	if err != nil {
		res.code = "transport"
		res.latency = 0
		res.completed = -1
		return res
	}
	req.Header.Set(headerRequestID, sr.id)
	resp, err := client.Do(req)
	now := time.Since(start)
	res.latency = now - sr.at
	if res.latency < 0 {
		res.latency = 0
	}
	res.completed = now
	if err != nil {
		res.code = "transport"
		return res
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		res.ok = true
		return res
	}
	res.code = envelopeCode(body, resp.StatusCode)
	return res
}

// envelopeCode extracts the transn.serve/v1 error code from a non-2xx
// body, falling back to "http_<status>" for foreign bodies.
func envelopeCode(body []byte, status int) string {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return env.Error.Code
	}
	return fmt.Sprintf("http_%d", status)
}

// reloadOut reports the reload goroutine's tally.
type reloadOut struct{ ok int }

// runReloads issues the profile's mid-run reloads, evenly spaced across
// the measured window at warmup + duration·(r+1)/(reloads+1), and
// counts the 200s. Each reload is wrapped in an obs span so the report
// shows reload timing alongside the measured window.
func runReloads(client *http.Client, base string, p Profile, run *obs.Run, start time.Time, done chan<- reloadOut) {
	out := reloadOut{}
	defer func() { done <- out }()
	for r := 0; r < p.Reloads; r++ {
		at := p.Warmup + time.Duration(float64(p.Duration)*float64(r+1)/float64(p.Reloads+1))
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		span := run.Trace.Start(obs.SpanLoadReload)
		resp, err := client.Post(base+"/admin/reload", "application/json", nil)
		span.End()
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			out.ok++
		}
	}
}

// scrapeMetrics fetches the target's /metrics obs report; a nil report
// (endpoint absent, scrape failure) degrades the run to client-side
// numbers only.
func scrapeMetrics(client *http.Client, base string) (*obs.Report, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: /metrics returned %d", resp.StatusCode)
	}
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("load: /metrics decode: %w", err)
	}
	return &rep, nil
}

// serverDelta subtracts two /metrics scrapes into the report's server
// section. Counter keys index the obs report with the same constants
// the server registers them under.
func serverDelta(before, after *obs.Report) *ServerStats {
	d := func(key string) int64 {
		v := after.Counters[key] - before.Counters[key]
		if v < 0 {
			return 0
		}
		return v
	}
	s := &ServerStats{
		Requests:    d(obs.MetricServeRequests),
		Errors:      d(obs.MetricServeErrors),
		CacheHits:   d(obs.MetricServeCacheHits),
		CacheMisses: d(obs.MetricServeCacheMisses),
		Reloads:     d(obs.MetricServeReloads),
	}
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	return s
}
