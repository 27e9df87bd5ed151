package obs

// Declared metric names. The registry accepts any string, but every
// name that ships in the transn.telemetry.report/v1 counters/gauges/
// histograms sections must be one of these constants — transnlint's
// schema-registry analyzer flags constant names outside this set, so a
// renamed or misspelled metric is a lint finding instead of a silent
// consumer break. (benchrun's free-form Metrics *result* paths are a
// separate, documented free-form namespace.)
const (
	// MetricWalkPaths counts walk-corpus paths generated.
	MetricWalkPaths = "walk.paths"
	// MetricSkipgramPairs counts (center, context) skip-gram training
	// pairs — the examples/sec throughput unit.
	MetricSkipgramPairs = "skipgram.pairs"
	// MetricCrossSegments counts common-node segments consumed by
	// cross-view pair steps.
	MetricCrossSegments = "cross.segments"
	// MetricCrossSegmentLoss is the per-segment cross-view loss
	// histogram.
	MetricCrossSegmentLoss = "cross.segment_loss"
	// MetricLossSingle/Cross/Translation/Reconstruction are the most
	// recent iteration-mean loss gauges (Eq. 3, Eqs. 11–14).
	MetricLossSingle         = "loss.single"
	MetricLossCross          = "loss.cross"
	MetricLossTranslation    = "loss.translation"
	MetricLossReconstruction = "loss.reconstruction"

	// MetricServeRequests counts HTTP requests the embedding server
	// answered (every endpoint, every status).
	MetricServeRequests = "serve.requests"
	// MetricServeErrors counts requests answered with an error envelope
	// (4xx/5xx).
	MetricServeErrors = "serve.errors"
	// MetricServeLatency is the per-request wall-time histogram
	// (seconds) across every serving endpoint.
	MetricServeLatency = "serve.latency_seconds"
	// MetricServeCacheHits / MetricServeCacheMisses count /v1/translate
	// lookups in the per-snapshot table of translated rows: a hit reads
	// a row already there, a miss runs the forward pass that fills it.
	MetricServeCacheHits   = "serve.cache_hits"
	MetricServeCacheMisses = "serve.cache_misses"
	// MetricServeSnapshotGen is the generation number of the snapshot
	// currently serving traffic; it increments on every hot reload.
	MetricServeSnapshotGen = "serve.snapshot_generation"
	// MetricServeReloads counts successful snapshot hot reloads.
	MetricServeReloads = "serve.reloads"
	// MetricServeReloadFailures counts hot reloads that failed and left
	// the previous snapshot serving.
	MetricServeReloadFailures = "serve.reload_failures"
	// MetricSnapLoads counts .snap snapshot loads (initial + reloads).
	MetricSnapLoads = "snap.loads"
	// MetricSnapMappedBytes is the byte size of the currently mapped
	// .snap file (0 after a copied load).
	MetricSnapMappedBytes = "snap.mapped_bytes"

	// MetricLoadOffered counts requests the load harness scheduled in
	// the measured window (the open-loop arrival process; see
	// DESIGN.md §11). Offered minus sent is harness backlog.
	MetricLoadOffered = "load.offered"
	// MetricLoadSent counts measured-window requests that completed
	// (any status); sent over the window is the achieved rate.
	MetricLoadSent = "load.sent"
	// MetricLoadErrors counts measured-window requests that failed:
	// transport errors plus any non-2xx envelope.
	MetricLoadErrors = "load.errors"
	// MetricLoadLatencyEmbedding/Translate/KNN/Infer are the
	// per-endpoint open-loop latency histograms (seconds, measured from
	// each request's scheduled arrival time so queueing delay counts).
	MetricLoadLatencyEmbedding = "load.latency_seconds.embedding"
	MetricLoadLatencyTranslate = "load.latency_seconds.translate"
	MetricLoadLatencyKNN       = "load.latency_seconds.knn"
	MetricLoadLatencyInfer     = "load.latency_seconds.infer"

	// MetricWatchTrips counts SLO watchdog rule trips (each transition
	// of a rule from healthy to violated; see DESIGN.md §13).
	MetricWatchTrips = "watch.trips"
	// MetricWatchDegraded is the number of watchdog rules currently in
	// the degraded (tripped, not yet recovered) state.
	MetricWatchDegraded = "watch.degraded_rules"

	// MetricRuntimeHeapAlloc is the live heap size in bytes
	// (runtime.MemStats.HeapAlloc), polled by Run.PollRuntime.
	MetricRuntimeHeapAlloc = "runtime.heap_alloc_bytes"
	// MetricRuntimeGCPauseTotal is the cumulative stop-the-world GC
	// pause time in seconds since process start.
	MetricRuntimeGCPauseTotal = "runtime.gc_pause_total_seconds"
	// MetricRuntimeGCCycles counts completed GC cycles since process
	// start.
	MetricRuntimeGCCycles = "runtime.gc_cycles"
	// MetricRuntimeGoroutines is the current goroutine count.
	MetricRuntimeGoroutines = "runtime.goroutines"
	// MetricRuntimeSchedLatency is a scheduler-latency proxy: the
	// observed delay of a timer wakeup beyond its requested sleep. A
	// loaded or GC-stalled scheduler shows up here before it shows up
	// in request latency.
	MetricRuntimeSchedLatency = "runtime.sched_latency_seconds"
)

// Declared span names. Tracer.Start sites with a constant name must use
// one of these (or a Stage value — every Algorithm 1 stage is also a
// span name); dynamic names (benchrun's per-experiment spans) are
// exempt by construction.
const (
	// SpanTrain covers a whole Train call.
	SpanTrain = "train"
	// SpanWalk / SpanSkipGram / SpanCrossPair / SpanIteration alias the
	// stage strings so tracing and event code share one vocabulary.
	SpanWalk      = string(StageWalk)
	SpanSkipGram  = string(StageSkipGram)
	SpanCrossPair = string(StageCrossPair)
	SpanIteration = string(StageIteration)
	// SpanServeReload covers one snapshot hot reload in the embedding
	// server (load + validate + swap).
	SpanServeReload = "serve.reload"
	// SpanServeSelfcheck covers one /admin/selfcheck diagnostics run.
	// Per-request timing deliberately goes to the serve.latency_seconds
	// histogram instead of spans: a span name keeps only count, total,
	// min and max, while the histogram keeps the latency distribution.
	SpanServeSelfcheck = "serve.selfcheck"
	// SpanLoadWarmup / SpanLoadMeasure cover the load harness's warmup
	// and measured windows; SpanLoadReload covers one mid-run
	// POST /admin/reload issued by the harness. Per-request timing goes
	// to the load.latency_seconds.* histograms, not spans, for the same
	// reason as serving.
	SpanLoadWarmup  = "load.warmup"
	SpanLoadMeasure = "load.measure"
	SpanLoadReload  = "load.reload"
	// SpanSnapLoad covers opening + validating + decoding one .snap
	// snapshot file (the O(header) part of a snap reload).
	SpanSnapLoad = "snap.load"
)
