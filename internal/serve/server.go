package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"transn/internal/obs"
)

// FormatSnap names transn.snap/v1, the only model file format, in the
// deprecated Config.SnapshotFormat field.
const FormatSnap = "snap"

// Config configures a Server. GraphPath and ModelPath are required;
// every other field has a production default.
type Config struct {
	// GraphPath is the network TSV the model was trained on.
	GraphPath string
	// ModelPath is the trained model: a transn.snap/v1 file written by
	// `transn train -model` (SNAPSHOT.md). It is mmapped, so replace it
	// by renaming a new file over it, never by rewriting it in place.
	ModelPath string
	// Deprecated: transn.snap/v1 is the only model format. New accepts
	// "" or FormatSnap and rejects anything else.
	SnapshotFormat string

	// TraceDisabled turns off request-scoped tracing entirely: no
	// request IDs are minted, /debug/requests and /debug/slow answer
	// 404, and the per-request instrumentation reduces to nil checks
	// with zero allocations (pinned by a benchmark). Client-supplied
	// X-Transn-Request-Id headers are still echoed in error envelopes.
	TraceDisabled bool
	// TraceSampleRate / TraceRingSize / TraceSlowThreshold configure
	// the trace sampler and rings; zero values take the obs.TraceConfig
	// defaults (rate 1/64, ring 256, threshold 250ms) and negative
	// values disable that dimension. The head (first 64 requests) and
	// the slow ring (64 traces) always take their defaults.
	TraceSampleRate    int
	TraceRingSize      int
	TraceSlowThreshold time.Duration
	// Logger, when non-nil, receives the structured JSON access log
	// (one LogLevelAccess line per API request) and the slow-request
	// log (LogLevelSlow, with per-stage timings). Nil disables request
	// logging.
	Logger *slog.Logger
	// RuntimePollInterval is how often runtime health gauges (heap, GC
	// pause, goroutines, scheduler latency) are sampled into the
	// registry. 0 means the default (5s); negative disables polling.
	RuntimePollInterval time.Duration

	// HistoryDisabled turns off the metrics flight recorder: no sampler
	// runs, /debug/history answers 404, and watchdog rules are rejected
	// (they need windows to judge).
	HistoryDisabled bool
	// HistoryFineInterval is the fine ring's sampling period; 0 takes
	// the obs.HistoryConfig default (1s). The ring sizes and the coarse
	// ring's period always take their defaults (300 fine samples, 10s×360
	// coarse).
	HistoryFineInterval time.Duration

	// WatchRules, when non-nil, starts the SLO burn-rate watchdog over
	// the recorder's windows (parse files with obs.ParseWatchRules). A
	// tripped rule WARNs, surfaces in /readyz's degraded detail, and —
	// when AnomalyDir is set — captures an anomaly bundle.
	WatchRules *obs.WatchConfig
	// WatchInterval is the watchdog evaluation period. 0 means 1s.
	WatchInterval time.Duration

	// AnomalyDir, when non-empty, is where tripped rules capture
	// bounded-retention anomaly bundles (heap + goroutine profiles,
	// history dump, slow-ring dump). Empty disables capture.
	AnomalyDir string
	// AnomalyCooldown is the minimum spacing between captures; 0 takes
	// the obs.AnomalyConfig default (30s). Retention always keeps the
	// newest 8 bundles.
	AnomalyCooldown time.Duration
}

// Fixed serving limits.
const (
	// requestTimeout is the per-request deadline for the /v1 endpoints.
	requestTimeout = 10 * time.Second
	// selfcheckTimeout is the deadline for /admin/selfcheck, which runs
	// full model diagnostics.
	selfcheckTimeout = time.Minute
	// drainTimeout bounds how long Shutdown waits for in-flight
	// requests to finish.
	drainTimeout = 10 * time.Second
	// maxK caps the k parameter of /v1/knn.
	maxK = 100
	// defaultRuntimePoll is the runtime gauge polling interval when
	// Config.RuntimePollInterval is 0.
	defaultRuntimePoll = 5 * time.Second
)

// Server is the embedding-serving HTTP service. It owns an atomically
// swappable snapshot (see snapshot) and the telemetry run its metrics
// report through. Construct with New, mount Handler (or call Start),
// hot-reload with Reload, stop with Shutdown. All methods are safe for
// concurrent use.
type Server struct {
	cfg Config
	run *obs.Run

	snap     atomic.Pointer[snapshot]
	draining atomic.Bool
	reloadMu sync.Mutex // serializes Reload; requests never block on it

	mux     *http.ServeMux
	httpSrv *http.Server

	traces      *obs.TraceLog // nil when Config.TraceDisabled
	log         *slog.Logger  // nil when Config.Logger is nil
	ids         *reqIDGen
	stopRuntime func()

	history      *obs.History         // nil when Config.HistoryDisabled
	watchdog     *obs.Watchdog        // nil when no Config.WatchRules
	anomalies    *obs.AnomalyCapturer // nil when no Config.AnomalyDir
	stopHistory  func()
	stopWatchdog func()

	reqs, errs, hits, misses *obs.Counter
	reloads, reloadFailures  *obs.Counter
	snapLoads                *obs.Counter
	latency                  *obs.Histogram
	genGauge                 *obs.Gauge
	snapMapped               *obs.Gauge
}

// New loads the initial snapshot from cfg's paths and returns a ready
// server. The returned server is not yet listening — call Start, or
// mount Handler on a listener of your own.
func New(cfg Config) (*Server, error) {
	if cfg.GraphPath == "" || cfg.ModelPath == "" {
		return nil, fmt.Errorf("serve: GraphPath and ModelPath are required")
	}
	if cfg.SnapshotFormat != "" && cfg.SnapshotFormat != FormatSnap {
		return nil, fmt.Errorf("serve: snapshot format %q is not supported: gob support was removed and transn.snap/v1 is the only model format (leave SnapshotFormat empty)",
			cfg.SnapshotFormat)
	}
	run := obs.NewRun()
	sv := &Server{
		cfg:            cfg,
		run:            run,
		reqs:           run.Reg.Counter(obs.MetricServeRequests),
		errs:           run.Reg.Counter(obs.MetricServeErrors),
		hits:           run.Reg.Counter(obs.MetricServeCacheHits),
		misses:         run.Reg.Counter(obs.MetricServeCacheMisses),
		reloads:        run.Reg.Counter(obs.MetricServeReloads),
		reloadFailures: run.Reg.Counter(obs.MetricServeReloadFailures),
		snapLoads:      run.Reg.Counter(obs.MetricSnapLoads),
		snapMapped:     run.Reg.Gauge(obs.MetricSnapMappedBytes),
		latency: run.Reg.Histogram(obs.MetricServeLatency,
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
		genGauge: run.Reg.Gauge(obs.MetricServeSnapshotGen),
		log:      cfg.Logger,
		ids:      newReqIDGen(),
	}
	if !cfg.TraceDisabled {
		sv.traces = obs.NewTraceLog(obs.TraceConfig{
			SampleRate:    cfg.TraceSampleRate,
			RingSize:      cfg.TraceRingSize,
			SlowThreshold: cfg.TraceSlowThreshold,
		})
	}
	poll := cfg.RuntimePollInterval
	if poll == 0 {
		poll = defaultRuntimePoll
	}
	sv.stopRuntime = func() {}
	if poll > 0 {
		sv.stopRuntime = run.PollRuntime(poll)
	}
	snap, err := sv.loadSnapshot(1)
	if err != nil {
		return nil, err
	}
	sv.snap.Store(snap)
	sv.genGauge.Set(1)
	sv.stopHistory = func() {}
	sv.stopWatchdog = func() {}
	if !cfg.HistoryDisabled {
		// Register the watchdog's own metrics before the history resolves
		// the registry's metric set: the flight recorder tracks only
		// metrics that exist at its construction, and everything above
		// (serve counters, runtime gauges) is registered by now — the
		// history is deliberately the last telemetry component built.
		trips := run.Reg.Counter(obs.MetricWatchTrips)
		degraded := run.Reg.Gauge(obs.MetricWatchDegraded)
		sv.history = obs.NewHistory(run.Reg, obs.HistoryConfig{FineInterval: cfg.HistoryFineInterval})
		sv.stopHistory = sv.history.Start()
		if cfg.WatchRules != nil {
			if cfg.AnomalyDir != "" {
				ac, err := obs.NewAnomalyCapturer(obs.AnomalyConfig{
					Dir: cfg.AnomalyDir, Cooldown: cfg.AnomalyCooldown,
				})
				if err != nil {
					return nil, fmt.Errorf("serve: %w", err)
				}
				sv.anomalies = ac
			}
			wd, err := obs.NewWatchdog(obs.WatchdogConfig{
				History:      sv.history,
				Rules:        cfg.WatchRules,
				Interval:     cfg.WatchInterval,
				Logger:       cfg.Logger,
				Trips:        trips,
				DegradedRule: degraded,
				OnTrip:       sv.captureAnomaly,
			})
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			sv.watchdog = wd
			sv.stopWatchdog = wd.Start()
		}
	} else if cfg.WatchRules != nil {
		return nil, fmt.Errorf("serve: watchdog rules need the metrics history recorder enabled")
	}
	sv.mux = http.NewServeMux()
	sv.routes()
	return sv, nil
}

// Handler returns the server's full route set (API, admin, health and
// telemetry debug endpoints) for mounting on any listener.
func (sv *Server) Handler() http.Handler { return sv.mux }

// Telemetry returns the server's obs run, whose live report is also
// exported at /metrics.
func (sv *Server) Telemetry() *obs.Run { return sv.run }

// Generation returns the generation number of the snapshot currently
// serving traffic.
func (sv *Server) Generation() uint64 { return sv.snap.Load().gen }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine until Shutdown. It returns the bound address.
func (sv *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	sv.httpSrv = &http.Server{Handler: sv.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = sv.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Reload builds a fresh snapshot from the configured paths and swaps it
// in atomically. In-flight requests keep the snapshot they started
// with; new requests see the new generation — no request is dropped or
// blocked by a reload. On error the previous snapshot stays live and
// serving continues. Concurrent Reloads are serialized.
func (sv *Server) Reload() error {
	sv.reloadMu.Lock()
	defer sv.reloadMu.Unlock()
	sp := sv.run.Trace.Start(obs.SpanServeReload)
	gen := sv.snap.Load().gen + 1
	snap, err := sv.loadSnapshot(gen)
	sp.End()
	if err != nil {
		sv.reloadFailures.Add(1)
		return err
	}
	sv.snap.Store(snap)
	sv.genGauge.Set(float64(gen))
	sv.reloads.Add(1)
	return nil
}

// Shutdown drains the server gracefully: readiness flips to 503 (so
// load balancers stop routing here), in-flight requests get up to
// drainTimeout to finish, then the listener closes. The runtime health
// poller stops. Safe to call when Start was never called (it only
// flips readiness) and safe to call more than once.
func (sv *Server) Shutdown() error {
	sv.draining.Store(true)
	sv.stopWatchdog()
	sv.stopHistory()
	sv.stopRuntime()
	if sv.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return sv.httpSrv.Shutdown(ctx)
}
