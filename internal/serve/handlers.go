package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"transn/internal/diag"
	"transn/internal/obs"
	"transn/internal/transn"
)

// EmbeddingResponse is the body of GET /v1/embedding.
type EmbeddingResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Node echoes the queried node name.
	Node string `json:"node"`
	// View is the view name for per-view queries, absent for the final
	// averaged embedding.
	View string `json:"view,omitempty"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Embedding is the requested vector.
	Embedding []float64 `json:"embedding"`
}

// TranslateResponse is the body of GET /v1/translate.
type TranslateResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Node echoes the queried node name.
	Node string `json:"node"`
	// From and To echo the source and target view names.
	From string `json:"from"`
	To   string `json:"to"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Embedding is T_{from→to}(node): the node's view-from embedding
	// pushed through the trained translator stack into view to's space.
	Embedding []float64 `json:"embedding"`
}

// KNNResponse is the body of GET /v1/knn.
type KNNResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Node echoes the queried node name.
	Node string `json:"node"`
	// K is the number of neighbors actually returned (≤ requested k).
	K int `json:"k"`
	// Neighbors is sorted by similarity descending, ties by node ID.
	Neighbors []Neighbor `json:"neighbors"`
}

// InferEdge is one edge of an unseen node in a POST /v1/infer body.
type InferEdge struct {
	// Neighbor is the name of an existing node the unseen node links to.
	Neighbor string `json:"neighbor"`
	// Type is the edge-type (view) name of the link.
	Type string `json:"type"`
	// Weight is the edge weight; omitted or 0 means 1.
	Weight float64 `json:"weight"`
}

// InferRequest is the body of POST /v1/infer.
type InferRequest struct {
	// Edges describes the unseen node's links into the trained graph.
	Edges []InferEdge `json:"edges"`
}

// InferResponse is the body of POST /v1/infer.
type InferResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Embedding is the inferred final embedding of the unseen node.
	Embedding []float64 `json:"embedding"`
}

// ViewInfo summarizes one view in a ModelResponse.
type ViewInfo struct {
	// Name is the edge-type name that induces the view.
	Name string `json:"name"`
	// Nodes and Edges are the view's sizes.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Hetero reports a heter-view (two node types, Definition 4).
	Hetero bool `json:"hetero"`
}

// ModelResponse is the body of GET /v1/model: the served snapshot's
// shape, for API discovery.
type ModelResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Generation is the snapshot generation serving this response.
	Generation uint64 `json:"generation"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Nodes and Edges are the graph's sizes.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Views lists every view the model was trained with.
	Views []ViewInfo `json:"views"`
	// Pairs lists the view-name pairs with trained translators.
	Pairs [][2]string `json:"pairs"`
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Ready is true when a snapshot is live and the server is not
	// draining.
	Ready bool `json:"ready"`
	// Generation is the live snapshot generation.
	Generation uint64 `json:"generation"`
	// Degraded lists the names of currently-tripped SLO watchdog rules,
	// sorted; absent when every rule holds (or no watchdog runs). A
	// degraded server still answers ready — degradation is a quality
	// signal for operators and canary analysis, not a routing decision.
	Degraded []string `json:"degraded,omitempty"`
}

// ReloadResponse is the body of POST /admin/reload.
type ReloadResponse struct {
	// Schema is always "transn.serve/v1".
	Schema string `json:"schema"`
	// Generation is the freshly loaded snapshot generation.
	Generation uint64 `json:"generation"`
}

// snapHandler is a snapshot-scoped endpoint body: it computes against
// the snapshot pointer grabbed at request start and returns a JSON
// payload or an *apiError. It must not touch the ResponseWriter — the
// middleware owns the write so a timed-out handler cannot race it.
type snapHandler func(s *snapshot, r *http.Request) (any, error)

// routes mounts every endpoint on the server mux.
func (sv *Server) routes() {
	sv.mux.Handle("/v1/embedding", sv.endpoint("embedding", http.MethodGet, requestTimeout, sv.handleEmbedding))
	sv.mux.Handle("/v1/translate", sv.endpoint("translate", http.MethodGet, requestTimeout, sv.handleTranslate))
	sv.mux.Handle("/v1/knn", sv.endpoint("knn", http.MethodGet, requestTimeout, sv.handleKNN))
	sv.mux.Handle("/v1/infer", sv.endpoint("infer", http.MethodPost, requestTimeout, sv.handleInfer))
	sv.mux.Handle("/v1/model", sv.endpoint("model", http.MethodGet, requestTimeout, sv.handleModel))
	sv.mux.Handle("/admin/selfcheck", sv.endpoint("selfcheck", http.MethodGet, selfcheckTimeout, sv.handleSelfcheck))
	sv.mux.HandleFunc("/admin/reload", sv.handleReload)
	sv.mux.HandleFunc("/healthz", sv.handleHealthz)
	sv.mux.HandleFunc("/readyz", sv.handleReadyz)
	sv.mux.HandleFunc("/debug/requests", sv.handleDebugRequests)
	sv.mux.HandleFunc("/debug/slow", sv.handleDebugSlow)
	sv.mux.HandleFunc("/debug/history", sv.handleDebugHistory)
	sv.mux.HandleFunc("/", sv.handleNotFound)
	sv.run.MountDebug(sv.mux)
}

// endpoint wraps a snapHandler with the serving middleware: request
// counting, correlation-ID settlement, tracing, method check, snapshot
// acquisition, the per-endpoint deadline, latency observation,
// error-envelope rendering and access/slow logging. The handler runs on
// its own goroutine; on timeout the client gets a 504 envelope while
// the computation finishes in the background (a translate still fills
// its row for the retry) — the trace is finalized at the deadline, so a
// still-open stage is recorded at its duration so far and the
// background goroutine's later stage marks land on atomics that nobody
// reads again (race-free by construction, verified under -race).
func (sv *Server) endpoint(name, method string, timeout time.Duration, h snapHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sv.reqs.Add(1)
		tr, reqID := sv.beginTrace(r, name)
		status := http.StatusOK
		outcome := obs.TraceOutcomeOK
		code := ""
		defer func() {
			elapsed := time.Since(start)
			sv.latency.Observe(elapsed.Seconds())
			if status >= 400 {
				sv.errs.Add(1)
			}
			sv.finishTrace(r, tr, reqID, name, outcome, status, code, elapsed)
		}()
		if reqID != "" {
			w.Header().Set(HeaderRequestID, reqID)
		}
		if r.Method != method {
			outcome, code = obs.TraceOutcomeError, CodeMethodNotAllowed
			status = writeError(w, reqID, errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s requires %s", r.URL.Path, method))
			return
		}
		tr.StartStage(obs.TraceStageSnapshot)
		snap := sv.snap.Load()
		if snap == nil || sv.draining.Load() {
			outcome, code = obs.TraceOutcomeError, CodeNotReady
			status = writeError(w, reqID, errf(http.StatusServiceUnavailable, CodeNotReady,
				"no snapshot is live (starting up or draining)"))
			return
		}
		tr.SetGeneration(snap.gen)
		tr.EndStage(obs.TraceStageSnapshot)
		if tr != nil {
			r = r.WithContext(withTrace(r.Context(), tr))
		}
		type result struct {
			v        any
			err      error
			panicked bool
		}
		ch := make(chan result, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					ch <- result{err: errf(http.StatusInternalServerError, CodeInternal,
						"handler panic: %v", p), panicked: true}
				}
			}()
			v, err := h(snap, r)
			ch <- result{v: v, err: err}
		}()
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case res := <-ch:
			if res.err != nil {
				outcome = obs.TraceOutcomeError
				if res.panicked {
					outcome = obs.TraceOutcomePanic
				}
				status = writeError(w, reqID, res.err)
				if ae, ok := res.err.(*apiError); ok {
					code = ae.code
				} else {
					code = CodeInternal
				}
				return
			}
			tr.StartStage(obs.TraceStageEncode)
			writeJSON(w, http.StatusOK, res.v)
			// Embedding bodies alias rows of the snapshot's mmapped
			// tables, which its finalizer unmaps once the snapshot is
			// unreachable. After a reload only this request still
			// refers to it, so keep it alive until the body is encoded.
			runtime.KeepAlive(snap)
			tr.EndStage(obs.TraceStageEncode)
		case <-timer.C:
			outcome, code = obs.TraceOutcomeTimeout, CodeTimeout
			status = writeError(w, reqID, errf(http.StatusGatewayTimeout, CodeTimeout,
				"request exceeded the %s deadline", timeout))
		}
	})
}

// handleEmbedding serves GET /v1/embedding?node=NAME[&view=VIEW]: the
// final averaged embedding (Section III-C), or the view-specific
// embedding when view is given.
func (sv *Server) handleEmbedding(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	tr.StartStage(obs.TraceStageDecode)
	q := r.URL.Query()
	name := q.Get("node")
	if name == "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "missing required parameter: node")
	}
	id, err := s.node(name)
	if err != nil {
		return nil, err
	}
	viewName := q.Get("view")
	tr.EndStage(obs.TraceStageDecode)
	resp := EmbeddingResponse{Schema: ErrorSchema, Node: name, Dim: s.frozen.Dim()}
	if viewName != "" {
		vi, err := s.view(viewName)
		if err != nil {
			return nil, err
		}
		tr.StartStage(obs.TraceStageForward)
		emb := s.frozen.ViewEmbedding(vi, id)
		tr.EndStage(obs.TraceStageForward)
		if emb == nil {
			return nil, errf(http.StatusNotFound, CodeUnknownNode,
				"node %q is not in view %q", name, viewName)
		}
		resp.View = viewName
		resp.Embedding = emb
		return resp, nil
	}
	tr.StartStage(obs.TraceStageForward)
	resp.Embedding = s.frozen.Final(id)
	tr.EndStage(obs.TraceStageForward)
	return resp, nil
}

// handleTranslate serves GET /v1/translate?node=NAME&from=VIEW&to=VIEW:
// the node's view-from embedding pushed through the trained translator
// stack T_{from→to} (Eqs. 8–10). The answer is read from the snapshot's
// row table; the first request for a row runs the forward pass and
// publishes it there.
func (sv *Server) handleTranslate(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	tr.StartStage(obs.TraceStageDecode)
	q := r.URL.Query()
	name, fromName, toName := q.Get("node"), q.Get("from"), q.Get("to")
	if name == "" || fromName == "" || toName == "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest,
			"missing required parameter(s): node, from and to are all required")
	}
	id, err := s.node(name)
	if err != nil {
		return nil, err
	}
	from, err := s.view(fromName)
	if err != nil {
		return nil, err
	}
	to, err := s.view(toName)
	if err != nil {
		return nil, err
	}
	if from == to {
		return nil, errf(http.StatusBadRequest, CodeBadRequest,
			"from and to are the same view %q", fromName)
	}
	p, ok := s.frozen.PairFor(from, to)
	if !ok {
		return nil, errf(http.StatusNotFound, CodeUntrainedPair,
			"views %q and %q share no common nodes; no translator was trained", fromName, toName)
	}
	slot := s.rowSlot(p, from, id)
	if slot == nil {
		// The message Frozen.TranslateNode gives for the same case.
		return nil, errf(http.StatusNotFound, CodeUnknownNode,
			"transn: translate: node %d is not in view %d", id, from)
	}
	tr.EndStage(obs.TraceStageDecode)
	tr.StartStage(obs.TraceStageCache)
	row := slot.Load()
	tr.EndStage(obs.TraceStageCache)
	if row != nil {
		sv.hits.Add(1)
		tr.SetCacheHit()
	} else {
		sv.misses.Add(1)
		tr.StartStage(obs.TraceStageForward)
		vec, err := s.frozen.TranslateNode(from, to, id)
		tr.EndStage(obs.TraceStageForward)
		if err != nil {
			return nil, errf(http.StatusNotFound, CodeUnknownNode, "%v", err)
		}
		// Concurrent misses compute bit-identical rows; the first to
		// publish wins and the others answer with their own copy.
		row = &vec
		slot.CompareAndSwap(nil, row)
	}
	return TranslateResponse{
		Schema: ErrorSchema, Node: name, From: fromName, To: toName,
		Dim: len(*row), Embedding: *row,
	}, nil
}

// handleKNN serves GET /v1/knn?node=NAME[&k=N][&exact=BOOL]: the k
// nearest neighbors of the node's final embedding under cosine
// similarity, from one exact scan of the final table. Every answer is
// exact; exact= is still parsed so a non-boolean value keeps its 400,
// and both values run the same scan.
func (sv *Server) handleKNN(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	tr.StartStage(obs.TraceStageDecode)
	q := r.URL.Query()
	name := q.Get("node")
	if name == "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "missing required parameter: node")
	}
	id, err := s.node(name)
	if err != nil {
		return nil, err
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil || k < 1 {
			return nil, errf(http.StatusBadRequest, CodeBadRequest,
				"k must be a positive integer, got %q", ks)
		}
	}
	if k > maxK {
		return nil, errf(http.StatusBadRequest, CodeBadRequest,
			"k=%d exceeds the server cap of %d", k, maxK)
	}
	if es := q.Get("exact"); es != "" {
		if _, err := strconv.ParseBool(es); err != nil {
			return nil, errf(http.StatusBadRequest, CodeBadRequest,
				"exact must be a boolean, got %q", es)
		}
	}
	tr.EndStage(obs.TraceStageDecode)
	tr.StartStage(obs.TraceStageForward)
	nbrs := s.knn(id, k)
	tr.EndStage(obs.TraceStageForward)
	return KNNResponse{Schema: ErrorSchema, Node: name, K: len(nbrs), Neighbors: nbrs}, nil
}

// handleInfer serves POST /v1/infer: online fold-in of an unseen node
// from its edges into the trained graph (Model.InferNode), computed
// afresh for every request.
func (sv *Server) handleInfer(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	tr.StartStage(obs.TraceStageDecode)
	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "decoding body: %v", err)
	}
	if len(req.Edges) == 0 {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "edges must be non-empty")
	}
	edges := make([]transn.NeighborEdge, 0, len(req.Edges))
	for _, e := range req.Edges {
		id, err := s.node(e.Neighbor)
		if err != nil {
			return nil, err
		}
		vi, err := s.view(e.Type)
		if err != nil {
			return nil, err
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, errf(http.StatusBadRequest, CodeBadRequest,
				"edge weight must be positive, got %g", w)
		}
		edges = append(edges, transn.NeighborEdge{
			Neighbor: id, Type: s.frozen.Views()[vi].Type, Weight: w,
		})
	}
	tr.EndStage(obs.TraceStageDecode)
	tr.StartStage(obs.TraceStageForward)
	vec, err := s.frozen.InferNode(edges)
	tr.EndStage(obs.TraceStageForward)
	if err != nil {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	return InferResponse{Schema: ErrorSchema, Dim: len(vec), Embedding: vec}, nil
}

// handleModel serves GET /v1/model: the live snapshot's shape.
func (sv *Server) handleModel(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	tr.StartStage(obs.TraceStageForward)
	defer tr.EndStage(obs.TraceStageForward)
	g := s.frozen.Graph()
	resp := ModelResponse{
		Schema: ErrorSchema, Generation: s.gen, Dim: s.frozen.Dim(),
		Nodes: g.NumNodes(), Edges: g.NumEdges(), Pairs: [][2]string{},
	}
	for vi, v := range s.frozen.Views() {
		resp.Views = append(resp.Views, ViewInfo{
			Name: s.viewNames[vi], Nodes: v.NumNodes(), Edges: v.NumEdges(), Hetero: v.Hetero,
		})
	}
	for _, pr := range s.frozen.ViewPairs() {
		resp.Pairs = append(resp.Pairs, [2]string{s.viewNames[pr.I], s.viewNames[pr.J]})
	}
	return resp, nil
}

// handleSelfcheck serves GET /admin/selfcheck: embedding/translator
// health findings (internal/diag) against the live snapshot, as a
// transn.diagnostics/v1 document. Corpus analysis is skipped — it
// regenerates walk corpora, which is a training-scale cost.
func (sv *Server) handleSelfcheck(s *snapshot, r *http.Request) (any, error) {
	tr := traceFrom(r.Context())
	sp := sv.run.Trace.Start(obs.SpanServeSelfcheck)
	tr.StartStage(obs.TraceStageForward)
	doc := diag.Analyze(s.frozen.Model(), diag.Options{Name: "serve-selfcheck", SkipCorpus: true})
	tr.EndStage(obs.TraceStageForward)
	sp.End()
	var buf bytes.Buffer
	if err := diag.Write(&buf, doc); err != nil {
		return nil, errf(http.StatusInternalServerError, CodeInternal, "encoding diagnostics: %v", err)
	}
	return json.RawMessage(buf.Bytes()), nil
}

// handleReload serves POST /admin/reload: build a fresh snapshot from
// the configured paths and swap it in without dropping a request.
// SIGHUP triggers the same path in cmd/transnserve.
func (sv *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	sv.reqs.Add(1)
	if r.Method != http.MethodPost {
		sv.errs.Add(1)
		writeError(w, requestID(r), errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"/admin/reload requires POST"))
		return
	}
	if err := sv.Reload(); err != nil {
		sv.errs.Add(1)
		writeError(w, requestID(r), errf(http.StatusInternalServerError, CodeReloadFailed, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Schema: ErrorSchema, Generation: sv.Generation()})
}

// handleHealthz serves GET /healthz: liveness. 200 whenever the process
// can answer at all, even while draining.
func (sv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves GET /readyz: readiness. 200 with the live
// generation while serving; 503 not_ready while starting or draining,
// so load balancers drain before Shutdown closes the listener.
func (sv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := sv.snap.Load()
	if snap == nil || sv.draining.Load() {
		writeError(w, requestID(r), errf(http.StatusServiceUnavailable, CodeNotReady,
			"no snapshot is live (starting up or draining)"))
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{
		Schema: ErrorSchema, Ready: true, Generation: snap.gen,
		Degraded: sv.watchdog.Degraded(),
	})
}

// handleNotFound answers unknown paths with the typed envelope instead
// of Go's default plain-text 404.
func (sv *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	sv.reqs.Add(1)
	sv.errs.Add(1)
	writeError(w, requestID(r), errf(http.StatusNotFound, CodeNotFound, "no such route: %s", r.URL.Path))
}
