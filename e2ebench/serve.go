package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/serve"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// packReps is how many times a run packs and opens the model; setup_s
// of a serving workload is the median of these.
const packReps = 3

// tracedRequests caps the measured requests of a traced run's traced
// server, so the trace ring holds every measured request.
const tracedRequests = 40000

// packPhase packs and opens m packReps times. In a traced run the last
// server traces every request and the one before it does not; every
// other server is untraced. Servers are returned even on error, so the
// caller can shut them all down.
func packPhase(m *transn.Model, g *graph.Graph, graphPath, dir string, seed int64, trace bool, sp *spans) ([]*packRep, error) {
	var packs []*packRep
	for i := 0; i < packReps; i++ {
		ring := 0
		if trace && i == packReps-1 {
			ring = warmupRequests + tracedRequests + 2*recallQueries + 1000
		}
		p, err := packOnce(m, g, graphPath, snapPath(dir, i), seed, ring, sp)
		if err != nil {
			return packs, err
		}
		packs = append(packs, p)
	}
	return packs, nil
}

// packMedian is the median over pack repetitions of one timing, in
// seconds.
func packMedian(packs []*packRep, d func(*packRep) time.Duration) float64 {
	var xs []float64
	for _, p := range packs {
		xs = append(xs, d(p).Seconds())
	}
	return median(xs)
}

// packRep is one pack → serve.New cycle: the wall time of its parts and
// the process CPU time of the whole.
type packRep struct {
	pack, annBuild, newServer time.Duration
	setupCPU                  time.Duration
	server                    *serve.Server
	index                     *ann.Index
}

func (p *packRep) setup() time.Duration { return p.setupCPU }

// packOnce captures m as a .snap file with an HNSW section and starts a
// server on it. The server is traced (every request sampled into a
// ring of ringSize) when ringSize > 0, untraced otherwise.
func packOnce(m *transn.Model, g *graph.Graph, graphPath, snapPath string, seed int64, ringSize int, sp *spans) (*packRep, error) {
	span := sp.start("pack.rep")
	defer sp.end(span)
	rep := &packRep{}
	t0, c0 := time.Now(), cpuNow()
	src, err := snapfmt.FromModel(m, g)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	idx, err := ann.Build(src.Final, ann.Norms(src.Final), ann.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("building ann index: %w", err)
	}
	src.ANN = idx.AppendTo(nil)
	t2 := time.Now()
	f, err := os.Create(snapPath)
	if err != nil {
		return nil, err
	}
	if err := snapfmt.Pack(f, src); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	cfg := serve.Config{
		GraphPath: graphPath, ModelPath: snapPath, SnapshotFormat: serve.FormatSnap,
		TraceDisabled: ringSize == 0,
	}
	if ringSize > 0 {
		cfg.TraceSampleRate = 1
		cfg.TraceRingSize = ringSize
	}
	sv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	t4 := time.Now()
	rep.setupCPU = cpuNow() - c0
	sp.record("snapfmt.from_model", span, t0, t1)
	sp.record("ann.build", span, t1, t2)
	sp.record("snapfmt.pack", span, t2, t3)
	sp.record("serve.new", span, t3, t4)
	rep.pack = t1.Sub(t0) + t3.Sub(t2)
	rep.annBuild = t2.Sub(t1)
	rep.newServer = t4.Sub(t3)
	rep.server, rep.index = sv, idx
	return rep, nil
}

// serving is a run's serving side: the packed servers, the client of
// the last one, and the measured segments. plain replays the request
// stream on an untraced server; in a traced run traced replays it on a
// server that traces every request.
type serving struct {
	packs         []*packRep
	cl            *client
	index         *ann.Index
	plain, traced *segment

	queries []graph.NodeID
	recall  float64
}

// startServing packs m, measures recall on the last server and warms up
// the segments. seconds sizes each segment's latency log.
func startServing(m *transn.Model, g *graph.Graph, graphPath, dir string, seed int64, w workload, seconds float64, trace bool, u *usage, errs *errCount, sp *spans) (*serving, error) {
	sv := &serving{}
	var err error
	sv.packs, err = packPhase(m, g, graphPath, dir, seed, trace, sp)
	if err != nil {
		return sv, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servePs))
	last := sv.packs[len(sv.packs)-1]
	sv.cl = &client{h: last.server.Handler(), dim: w.Train.Dim, u: u, errs: errs}
	sv.index = last.index
	sv.queries = queryNodes(g, seed)
	sv.recall = sv.cl.recall(g, sv.queries)
	if trace {
		// The untraced segment runs on the server before the last.
		plainCl := &client{h: sv.packs[len(sv.packs)-2].server.Handler(), dim: w.Train.Dim, u: u, errs: errs}
		if sv.plain, err = plainCl.newSegment(g, seed, 0, w.ReloadEvery, seconds, sp); err != nil {
			return sv, err
		}
		sv.traced, err = sv.cl.newSegment(g, seed, tracedRequests, w.ReloadEvery, seconds, sp)
		return sv, err
	}
	sv.plain, err = sv.cl.newSegment(g, seed, 0, w.ReloadEvery, seconds, sp)
	return sv, err
}

// finish reads the segments' cache counters.
func (sv *serving) finish() error {
	for _, s := range []*segment{sv.plain, sv.traced} {
		if s != nil {
			if err := s.finish(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close shuts every server down and unmaps the latency logs.
func (sv *serving) close() {
	for _, p := range sv.packs {
		p.server.Shutdown()
	}
	for _, s := range []*segment{sv.plain, sv.traced} {
		if s != nil {
			s.log.close()
		}
	}
}

// apiResponse holds the fields of every /v1 response body the output
// checks read.
type apiResponse struct {
	Schema    string           `json:"schema"`
	Dim       int              `json:"dim"`
	K         int              `json:"k"`
	Embedding []float64        `json:"embedding"`
	Neighbors []serve.Neighbor `json:"neighbors"`
}

// client is one closed-loop caller of a server's handler, in process:
// it sends the next request only after the previous one returned, and
// checks every response. Failed checks are counted, never dropped.
type client struct {
	h    http.Handler
	dim  int
	u    *usage
	errs *errCount
}

// errCount counts checked operations and failures across a run and
// keeps the first few failure messages.
type errCount struct {
	attempted, failed int
	first             []string
}

func (e *errCount) check(err error) {
	e.attempted++
	if err == nil {
		return
	}
	e.failed++
	if len(e.first) < 5 {
		e.first = append(e.first, err.Error())
	}
}

// send runs one request through the handler and returns the response
// and the process CPU time the handler took.
func (c *client) send(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	r := newRequest(method, target, body)
	w := httptest.NewRecorder()
	c0 := cpuNow()
	c.h.ServeHTTP(w, r)
	return w, cpuNow() - c0
}

// call sends req, checks the response and returns its CPU time.
func (c *client) call(req request) (time.Duration, *apiResponse) {
	w, d := c.send(req.Method, req.Target, req.Body)
	var resp apiResponse
	err := c.checkAPI(req.Endpoint, w, &resp)
	c.errs.check(err)
	return d, &resp
}

// newRequest builds the server-side request httptest.NewRequest would,
// without parsing it from wire format: that parse allocates a 4 KB read
// buffer per request, about a sixth of all allocation in the serving
// loop, and the collections it set off ran partly inside the measured
// handler calls.
func newRequest(method, target string, body []byte) *http.Request {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, target, rd)
	if err != nil {
		panic(fmt.Sprintf("building request %s %s: %v", method, target, err))
	}
	r.RequestURI = target
	r.RemoteAddr = "192.0.2.1:1234"
	r.Host = "example.com"
	return r
}

// checkAPI decodes a /v1 response into resp, whose slices it reuses,
// and verifies it: 200, schema transn.serve/v1, the model's dim for
// vector answers and k neighbours for knn.
func (c *client) checkAPI(endpoint string, w *httptest.ResponseRecorder, resp *apiResponse) error {
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", endpoint, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	*resp = apiResponse{Embedding: resp.Embedding[:0], Neighbors: resp.Neighbors[:0]}
	if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
		return fmt.Errorf("%s: decoding response: %v", endpoint, err)
	}
	if resp.Schema != serve.ErrorSchema {
		return fmt.Errorf("%s: schema %q", endpoint, resp.Schema)
	}
	if endpoint == epKNN {
		if resp.K != knnK || len(resp.Neighbors) != knnK {
			return fmt.Errorf("knn: %d neighbours, want %d", len(resp.Neighbors), knnK)
		}
		return nil
	}
	if resp.Dim != c.dim || len(resp.Embedding) != c.dim {
		return fmt.Errorf("%s: dim %d with %d values, want %d", endpoint, resp.Dim, len(resp.Embedding), c.dim)
	}
	return nil
}

// getJSON fetches a non-API route (readyz, metrics, debug dumps) into v.
func (c *client) getJSON(target string, v any) error {
	w, _ := c.send("GET", target, nil)
	if w.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", target, w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %v", target, err)
	}
	return nil
}

func (c *client) generation() (uint64, error) {
	var ready serve.ReadyResponse
	if err := c.getJSON("/readyz", &ready); err != nil {
		return 0, err
	}
	return ready.Generation, nil
}

// reload posts /admin/reload and checks that the response and /readyz
// both report generation want.
func (c *client) reload(want uint64) (time.Duration, error) {
	w, d := c.send("POST", "/admin/reload", nil)
	if w.Code != http.StatusOK {
		return d, fmt.Errorf("reload: status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	var resp serve.ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return d, fmt.Errorf("reload: %v", err)
	}
	gen, err := c.generation()
	if err != nil {
		return d, err
	}
	if resp.Generation != want || gen != want {
		return d, fmt.Errorf("reload: generation %d, readyz %d, want %d", resp.Generation, gen, want)
	}
	return d, nil
}

func (c *client) counters() (map[string]int64, error) {
	var rep obs.Report
	if err := c.getJSON("/metrics", &rep); err != nil {
		return nil, err
	}
	return rep.Counters, nil
}

// warmupRequests run before every measured window: they fill the
// cache and let lazy set-up finish.
const warmupRequests = 10000

// batchSize is how many measured requests are built, served and then
// checked together. Building requests and decoding and checking
// responses happen between the handler calls, off the clock, so the
// measured time is the server's own. A small batch keeps the prepared
// requests and recorded responses a small part of the live heap.
const batchSize = 200

// segment is one measured serving window. It may be served in several
// slices, which together replay one request stream.
type segment struct {
	c           *client
	sched       *schedule
	gen         uint64
	maxReq      int
	reloadEvery int
	before      map[string]int64
	sp          *spans
	span        int

	// wall is the time the slices took; busy is the process CPU time
	// spent inside the handler: every measured request plus every
	// reload. reqWall is the wall time of the measured requests alone.
	wall, busy, reqWall time.Duration
	// since is when the warm-up ended; traces before it are not measured.
	since   time.Time
	log     *latencyLog // CPU time per measured request
	reloads []float64   // CPU seconds per reload
	hits    int64
	misses  int64
	// allocBytes is the heap allocated while the handler ran.
	allocBytes uint64
}

func (s *segment) requests() int { return s.log.n }

// perRequest is the handler CPU time per measured request, reloads
// included.
func (s *segment) perRequest() float64 { return share(s.busy.Seconds(), float64(s.requests())) }

// throughput is measured requests per second of handler CPU time: the
// rate one client sustains against a core of the server's own.
func (s *segment) throughput() float64 { return share(float64(s.requests()), s.busy.Seconds()) }

// offCPUShare is the share of the measured requests' wall time that was
// not CPU time of the process.
func (s *segment) offCPUShare() float64 { return 1 - share(s.log.total(), s.reqWall.Seconds()) }

// prepared is one request built before its batch is timed.
type prepared struct {
	endpoint string
	r        *http.Request
	w        *httptest.ResponseRecorder
}

func (c *client) prepare(sched *schedule, n int) []prepared {
	batch := make([]prepared, n)
	for i := range batch {
		req := sched.next()
		batch[i] = prepared{req.Endpoint, newRequest(req.Method, req.Target, req.Body), httptest.NewRecorder()}
	}
	return batch
}

// newSegment starts replaying the seed's request stream against c:
// the warm-up requests first, unmeasured. The segment then measures at
// most maxReq requests (0 means no cap) and, with reloadEvery > 0,
// reloads after every reloadEvery measured requests. Its latency log
// holds up to seconds of requests at maxRate.
func (c *client) newSegment(g *graph.Graph, seed int64, maxReq, reloadEvery int, seconds float64, sp *spans) (*segment, error) {
	span := sp.start("serve.segment")
	defer sp.end(span)
	s := &segment{c: c, sched: newSchedule(g, seed), maxReq: maxReq, reloadEvery: reloadEvery, sp: sp, span: span}
	t0 := time.Now()
	for i := 0; i < warmupRequests; i++ {
		c.call(s.sched.next())
	}
	s.since = time.Now()
	sp.record("serve.warmup", span, t0, s.since)
	var err error
	if s.gen, err = c.generation(); err != nil {
		return nil, err
	}
	if s.before, err = c.counters(); err != nil {
		return nil, err
	}
	if s.log, err = newLatencyLog(int(seconds+1) * maxRate); err != nil {
		return nil, err
	}
	return s, nil
}

// serve measures requests for d, or until the request cap or the
// latency log is reached, on servePs Ps. Each batch is built, then
// served on the clock, then checked; a reload's handler time counts in
// busy but not in request latencies. With measureUsage the slice
// counts in the run's GC and CPU time. Every request is timed on the
// process CPU clock (see cpuNow), and on the wall clock for reqWall.
func (s *segment) serve(d time.Duration, measureUsage bool) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servePs))
	c := s.c
	if measureUsage {
		c.u.begin()
	}
	var resp apiResponse
	start := time.Now()
	for time.Since(start) < d && (s.maxReq == 0 || s.requests() < s.maxReq) && !s.log.full() {
		n := min(batchSize, s.log.free())
		if s.maxReq > 0 {
			n = min(n, s.maxReq-s.requests())
		}
		batch := c.prepare(s.sched, n)
		allocs := c.u.sample().heapAllocs
		for _, p := range batch {
			t0, c0 := time.Now(), cpuNow()
			c.h.ServeHTTP(p.w, p.r)
			d := cpuNow() - c0
			s.reqWall += time.Since(t0)
			s.busy += d
			s.log.add(d, p.endpoint)
			if s.reloadEvery > 0 && s.requests()%s.reloadEvery == 0 {
				s.gen++
				d, err := c.reload(s.gen)
				s.busy += d
				c.errs.check(err)
				s.reloads = append(s.reloads, d.Seconds())
				if err != nil {
					// Re-sync so one failed reload is counted once.
					if s.gen, err = c.generation(); err != nil {
						return err
					}
				}
			}
		}
		s.allocBytes += c.u.sample().heapAllocs - allocs
		for _, p := range batch {
			c.errs.check(c.checkAPI(p.endpoint, p.w, &resp))
		}
	}
	end := time.Now()
	s.wall += end.Sub(start)
	if measureUsage {
		c.u.end()
	}
	s.sp.record("serve.window", s.span, start, end)
	return nil
}

// finish reads the cache counters the segment's hit ratio comes from.
func (s *segment) finish() error {
	after, err := s.c.counters()
	if err != nil {
		return err
	}
	s.hits = after[obs.MetricServeCacheHits] - s.before[obs.MetricServeCacheHits]
	s.misses = after[obs.MetricServeCacheMisses] - s.before[obs.MetricServeCacheMisses]
	return nil
}

// recallQueries is how many knn queries recall_at_10 averages over.
const recallQueries = 100

// queryNodes draws the run's fixed knn query set.
func queryNodes(g *graph.Graph, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed + 7919))
	out := make([]graph.NodeID, recallQueries)
	for i := range out {
		out[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	return out
}

// recall asks the server for each query node's k nearest neighbours by
// the HNSW index and by exact scan, and returns the mean overlap.
func (c *client) recall(g *graph.Graph, queries []graph.NodeID) float64 {
	var approx, exact [][]string
	for _, id := range queries {
		name := g.Nodes[id].Name
		_, a := c.call(request{Endpoint: epKNN, Method: "GET", Target: knnTarget(name, false)})
		_, e := c.call(request{Endpoint: epKNN, Method: "GET", Target: knnTarget(name, true)})
		approx = append(approx, neighbourNames(a))
		exact = append(exact, neighbourNames(e))
	}
	return recallAtK(approx, exact, knnK)
}

func neighbourNames(r *apiResponse) []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.Neighbors))
	for i, n := range r.Neighbors {
		out[i] = n.Node
	}
	return out
}

// searchCost runs the query set straight against the index: the exact
// number of distance evaluations per search, and the median search
// time.
func searchCost(idx *ann.Index, table *mat.Dense, queries []graph.NodeID) (evalsPerSearch, medianUS float64, err error) {
	var evals int
	var times []float64
	for _, id := range queries {
		q := table.Row(int(id))
		var ss float64
		for _, v := range q {
			ss += v * v
		}
		t0 := time.Now()
		_, n, err := idx.Search(q, math.Sqrt(ss), knnK, 0)
		times = append(times, time.Since(t0).Seconds()*1e6)
		if err != nil {
			return 0, 0, err
		}
		evals += n
	}
	return float64(evals) / float64(len(queries)), median(times), nil
}

// forwardCost times the model's two serving computations called
// directly: translating a common node across a view-pair and folding in
// an unseen node, each over a fixed seeded input set.
func forwardCost(f *transn.Frozen, g *graph.Graph, seed int64, n int) (translateUS, inferUS float64, err error) {
	rng := rand.New(rand.NewSource(seed + 104729))
	pairs := f.ViewPairs()
	var tt, it []float64
	for i := 0; i < n && len(pairs) > 0; i++ {
		p := pairs[rng.Intn(len(pairs))]
		from, to := p.I, p.J
		if rng.Intn(2) == 1 {
			from, to = to, from
		}
		id := p.Common[rng.Intn(len(p.Common))]
		t0 := time.Now()
		if _, err := f.TranslateNode(from, to, id); err != nil {
			return 0, 0, err
		}
		tt = append(tt, time.Since(t0).Seconds()*1e6)
	}
	for i := 0; i < n; i++ {
		var edges []transn.NeighborEdge
		for k := 1 + rng.Intn(3); k > 0; k-- {
			e := g.Edges[rng.Intn(len(g.Edges))]
			edges = append(edges, transn.NeighborEdge{Neighbor: e.U, Type: e.Type, Weight: e.Weight})
		}
		t0 := time.Now()
		if _, err := f.InferNode(edges); err != nil {
			return 0, 0, err
		}
		it = append(it, time.Since(t0).Seconds()*1e6)
	}
	return median(tt), median(it), nil
}

// stageMeans reads the traced server's request ring and returns each
// trace stage's mean time per measured request, in microseconds.
func (c *client) stageMeans(since time.Time) (map[string]float64, int, error) {
	var dump obs.TraceDump
	if err := c.getJSON("/debug/requests", &dump); err != nil {
		return nil, 0, err
	}
	sums := map[string]float64{}
	n := 0
	for _, tr := range dump.Traces {
		if tr.Start.Before(since) {
			continue
		}
		n++
		for _, st := range obs.TraceStages() {
			sums[string(st)] += tr.Stages[string(st)]
		}
	}
	out := map[string]float64{}
	for _, st := range obs.TraceStages() {
		out[string(st)] = share(sums[string(st)], float64(n)) * 1e6
	}
	return out, n, nil
}

// serveLayers fills the serving per-layer metrics measured by the
// client in the untraced window seg.
func serveLayers(seg *segment, vals map[string]float64) {
	byEP := seg.log.byEndpoint()
	total := seg.log.total()
	for _, ep := range endpoints {
		lat := byEP[ep]
		var sum float64
		for _, s := range lat {
			sum += s
		}
		vals[ep+".p50_us"] = orderStat(lat, 0.50) * 1e6
		vals[ep+".p99_us"] = orderStat(lat, 0.99) * 1e6
		vals[ep+".share"] = share(sum, total)
	}
	vals["cache.hit_ratio"] = share(float64(seg.hits), float64(seg.hits+seg.misses))
	vals["reload.count"] = float64(len(seg.reloads))
	vals["reload.p50_ms"] = median(seg.reloads) * 1e3
}

// snapPath names pack repetition i's file: each repetition writes its
// own file, since a live server may still map an earlier one.
func snapPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("model-%d.snap", i))
}
