package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TraceStage labels one timed stage of a traced serving request. The
// stage set is fixed and schema-stable: the strings are the keys of the
// "stages" object in transn.trace.serve/v1 records and the slow-request
// log, and transnlint's schema-registry analyzer requires stage names
// at ReqTrace call sites to be these declared constants.
type TraceStage string

// The serving request stages, in request order. Not every request
// visits every stage: only /v1/translate looks up the row table (cache),
// a hit skips forward, and no request enters coalesce_wait — absent
// stages are simply omitted from the record.
const (
	// TraceStageDecode covers request parsing and validation: query
	// parameters, JSON bodies, node/view name resolution.
	TraceStageDecode TraceStage = "decode"
	// TraceStageSnapshot covers pinning the live snapshot pointer and
	// the readiness check.
	TraceStageSnapshot TraceStage = "snapshot_pin"
	// TraceStageCache covers the /v1/translate lookup in the snapshot's
	// table of translated rows.
	TraceStageCache TraceStage = "cache"
	// TraceStageCoalesceWait is never recorded: the server has no
	// request coalescer. It stays in TraceStages because the stage
	// vocabulary is schema-stable and the end-to-end benchmark derives
	// stage.coalesce_wait_us from it (which reads 0).
	TraceStageCoalesceWait TraceStage = "coalesce_wait"
	// TraceStageForward covers the model computation itself — the
	// Eq. 8–10 translator forward pass, a k-NN scan, or InferNode.
	TraceStageForward TraceStage = "forward"
	// TraceStageEncode covers JSON response encoding and the write to
	// the client.
	TraceStageEncode TraceStage = "encode"
)

// numTraceStages is the size of the per-stage timing arrays.
const numTraceStages = 6

// TraceStages returns every stage in canonical request order.
func TraceStages() []TraceStage {
	return []TraceStage{
		TraceStageDecode, TraceStageSnapshot, TraceStageCache,
		TraceStageCoalesceWait, TraceStageForward, TraceStageEncode,
	}
}

// traceStageIndex maps a stage to its timing-array slot, -1 for an
// unknown stage. A switch, not a map: stage marking sits on the serve
// hot path and must not allocate or hash.
func traceStageIndex(s TraceStage) int {
	switch s {
	case TraceStageDecode:
		return 0
	case TraceStageSnapshot:
		return 1
	case TraceStageCache:
		return 2
	case TraceStageCoalesceWait:
		return 3
	case TraceStageForward:
		return 4
	case TraceStageEncode:
		return 5
	}
	return -1
}

// TraceOutcome classifies how a traced request ended.
type TraceOutcome string

// The trace outcomes.
const (
	// TraceOutcomeOK marks a 2xx response.
	TraceOutcomeOK TraceOutcome = "ok"
	// TraceOutcomeError marks a request answered with an error envelope
	// before its deadline.
	TraceOutcomeError TraceOutcome = "error"
	// TraceOutcomeTimeout marks a request that exceeded its endpoint
	// deadline; stage timings cover work done up to the deadline, with
	// any still-running stage recorded at its duration so far.
	TraceOutcomeTimeout TraceOutcome = "timeout"
	// TraceOutcomePanic marks a request whose handler panicked (the
	// middleware converts the panic to a 500 envelope).
	TraceOutcomePanic TraceOutcome = "panic"
)

// traceOutcomeKnown reports whether s is a declared outcome, for dump
// validation.
func traceOutcomeKnown(s TraceOutcome) bool {
	switch s {
	case TraceOutcomeOK, TraceOutcomeError, TraceOutcomeTimeout, TraceOutcomePanic:
		return true
	}
	return false
}

// ReqTrace is the live trace of one in-flight serving request. It is
// created by TraceLog.Begin, threaded through the request (context →
// handler → row table → forward), and snapshotted into an
// immutable TraceRecord by TraceLog.Finish. All methods are nil-safe —
// with tracing disabled the instrumentation sites reduce to nil checks
// and allocate nothing — and all mutation is atomic, so a handler
// goroutine that outlives its deadline (the timeout middleware responds
// and moves on) can keep marking stages without racing Finish.
type ReqTrace struct {
	id       string
	endpoint string
	start    time.Time
	seq      uint64
	sampled  bool

	// stageStart/stageDur hold per-stage offsets and durations in
	// nanoseconds, biased by +1 so zero means "never started"/"never
	// ended" and a genuine 0ns reading still registers.
	stageStart [numTraceStages]atomic.Int64
	stageDur   [numTraceStages]atomic.Int64

	cacheHit atomic.Bool
	gen      atomic.Uint64
}

// ID returns the request ID the trace was begun with ("" on nil).
func (tr *ReqTrace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Sampled reports whether this trace was selected by head/rate sampling
// at Begin (slow traces are kept regardless; see TraceLog.Finish).
func (tr *ReqTrace) Sampled() bool {
	if tr == nil {
		return false
	}
	return tr.sampled
}

// StartStage marks the stage as entered now. Re-entering a stage
// restarts its clock; unknown stages are ignored.
//
// Allocation-free; pinned by TestHotPathsAllocFree and, on a nil
// trace, by serve's TestDisabledTracingZeroAlloc.
func (tr *ReqTrace) StartStage(s TraceStage) {
	if tr == nil {
		return
	}
	i := traceStageIndex(s)
	if i < 0 {
		return
	}
	tr.stageStart[i].Store(time.Since(tr.start).Nanoseconds() + 1)
}

// EndStage records the stage's duration since its StartStage. Without a
// prior StartStage it is a no-op.
//
// Allocation-free; pinned by TestHotPathsAllocFree and, on a nil
// trace, by serve's TestDisabledTracingZeroAlloc.
func (tr *ReqTrace) EndStage(s TraceStage) {
	if tr == nil {
		return
	}
	i := traceStageIndex(s)
	if i < 0 {
		return
	}
	off := tr.stageStart[i].Load()
	if off == 0 {
		return
	}
	d := time.Since(tr.start).Nanoseconds() - (off - 1)
	if d < 0 {
		d = 0
	}
	tr.stageDur[i].Store(d + 1)
}

// SetCacheHit marks a translate as served from the snapshot's row table.
//
// Allocation-free; pinned by TestHotPathsAllocFree and, on a nil
// trace, by serve's TestDisabledTracingZeroAlloc.
func (tr *ReqTrace) SetCacheHit() {
	if tr == nil {
		return
	}
	tr.cacheHit.Store(true)
}

// SetGeneration records the snapshot generation that served the request.
//
// Allocation-free; pinned by TestHotPathsAllocFree and, on a nil
// trace, by serve's TestDisabledTracingZeroAlloc.
func (tr *ReqTrace) SetGeneration(gen uint64) {
	if tr == nil {
		return
	}
	tr.gen.Store(gen)
}

// TraceRecord is the immutable, JSON-encodable snapshot of a finished
// request trace — one element of a transn.trace.serve/v1 dump.
type TraceRecord struct {
	// ID is the request's correlation ID (the X-Transn-Request-Id
	// value), client-supplied or server-generated.
	ID string `json:"id"`
	// Seq is the request's 1-based arrival index at this TraceLog.
	Seq uint64 `json:"seq"`
	// Endpoint is the serving endpoint label ("translate", "knn", ...).
	Endpoint string `json:"endpoint"`
	// Start is the wall-clock instant the trace began.
	Start time.Time `json:"start"`
	// TotalSeconds is the request's total traced duration.
	TotalSeconds float64 `json:"total_seconds"`
	// Stages maps visited stage names to their durations in seconds;
	// stages the request never entered are absent.
	Stages map[string]float64 `json:"stages,omitempty"`
	// Outcome classifies how the request ended.
	Outcome TraceOutcome `json:"outcome"`
	// Status is the HTTP status sent to the client.
	Status int `json:"status"`
	// Code is the transn.serve/v1 envelope code for non-2xx outcomes.
	Code string `json:"code,omitempty"`
	// CacheHit records a translate answered from the row table.
	CacheHit bool `json:"cache_hit"`
	// Coalesced is always false: the server has no request coalescer.
	// The field stays because this schema is append-only.
	Coalesced bool `json:"coalesced"`
	// Generation is the snapshot generation that served the request
	// (0 if the request never pinned a snapshot).
	Generation uint64 `json:"generation"`
	// Sampled reports head/rate sampling selected the request; Slow
	// reports it met the slow threshold. At least one is true for every
	// kept record.
	Sampled bool `json:"sampled"`
	Slow    bool `json:"slow"`
}

// TraceRing is a fixed-capacity concurrent ring buffer of trace
// records: writers overwrite the oldest entry once full, and Dump
// returns a consistent oldest-to-newest copy. A single mutex guards the
// ring — appends happen at most once per sampled request, far off any
// per-request critical path.
type TraceRing struct {
	mu    sync.Mutex
	buf   []TraceRecord
	total uint64 // records ever appended
}

// NewTraceRing returns a ring holding at most capacity records;
// capacity < 1 is clamped to 1.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceRecord, 0, capacity)}
}

// Add appends a record, overwriting the oldest once the ring is full.
func (r *TraceRing) Add(rec TraceRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[int(r.total)%cap(r.buf)] = rec
	}
	r.total++
	r.mu.Unlock()
}

// Dump returns a copy of the ring's records, oldest first.
func (r *TraceRing) Dump() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := int(r.total) % cap(r.buf) // oldest element
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// Len returns the number of records currently held.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap returns the ring's fixed capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Total returns how many records were ever appended (including ones
// since overwritten).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// TraceConfig sizes a TraceLog. The zero value means "use the
// documented default" for every field; negative values disable the
// corresponding sampling dimension.
type TraceConfig struct {
	// SampleHead always samples the first SampleHead requests — the
	// cold-start story (row-table fills after a reload) is
	// disproportionately informative. 0 means 64; negative disables
	// head sampling.
	SampleHead int
	// SampleRate samples every SampleRate-th request after the head —
	// deterministic arrival-order sampling, not random, so a replayed
	// workload samples the identical request set. 0 means 64 (~1.6%);
	// negative disables rate sampling. 1 samples everything.
	SampleRate int
	// RingSize bounds the sampled-trace ring. 0 means 256.
	RingSize int
	// SlowThreshold is the total-duration gate for the slow ring: every
	// request at or above it is kept regardless of sampling. 0 means
	// 250ms; negative disables slow capture.
	SlowThreshold time.Duration
}

// slowRingSize bounds the always-kept slow-trace ring.
const slowRingSize = 64

// withDefaults fills zero fields with the documented defaults.
func (c TraceConfig) withDefaults() TraceConfig {
	if c.SampleHead == 0 {
		c.SampleHead = 64
	}
	if c.SampleRate == 0 {
		c.SampleRate = 64
	}
	if c.RingSize == 0 {
		c.RingSize = 256
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// TraceLog owns request-scoped tracing for a server: the sampling
// decision, the sampled-trace ring, and the always-kept slow ring. A
// nil *TraceLog disables tracing everywhere downstream — Begin returns
// a nil *ReqTrace whose methods no-op without allocating.
type TraceLog struct {
	cfg     TraceConfig
	seq     atomic.Uint64
	sampled *TraceRing
	slow    *TraceRing
}

// NewTraceLog builds a trace log with the given configuration (zero
// fields take the TraceConfig defaults).
func NewTraceLog(cfg TraceConfig) *TraceLog {
	cfg = cfg.withDefaults()
	return &TraceLog{
		cfg:     cfg,
		sampled: NewTraceRing(cfg.RingSize),
		slow:    NewTraceRing(slowRingSize),
	}
}

// SlowThreshold returns the slow-ring gate duration (0 on nil).
func (tl *TraceLog) SlowThreshold() time.Duration {
	if tl == nil {
		return 0
	}
	return tl.cfg.SlowThreshold
}

// Begin starts tracing one request. The sampling decision is made here,
// deterministically from the arrival sequence number: the first
// SampleHead requests are sampled, then every SampleRate-th. Non-sampled
// requests are still traced (the slow ring needs complete timings to
// gate on), just not guaranteed a ring slot.
func (tl *TraceLog) Begin(id, endpoint string) *ReqTrace {
	if tl == nil {
		return nil
	}
	seq := tl.seq.Add(1)
	sampled := (tl.cfg.SampleHead > 0 && seq <= uint64(tl.cfg.SampleHead)) ||
		(tl.cfg.SampleRate > 0 && seq%uint64(tl.cfg.SampleRate) == 0)
	return &ReqTrace{
		id:       id,
		endpoint: endpoint,
		start:    time.Now(),
		seq:      seq,
		sampled:  sampled,
	}
}

// Finish snapshots the trace into an immutable record and routes it:
// sampled records to the sampled ring, records at or past the slow
// threshold to the slow ring (both, when both apply). Stages that were
// started but never ended — a forward pass still running when the
// timeout middleware gave up — are recorded at their duration so far,
// so a deadline-hit trace is still complete. Returns the record and
// whether it was kept in any ring; on a nil log or trace it returns a
// zero record without allocating.
func (tl *TraceLog) Finish(tr *ReqTrace, outcome TraceOutcome, status int, code string) (TraceRecord, bool) {
	if tl == nil || tr == nil {
		return TraceRecord{}, false
	}
	total := time.Since(tr.start)
	slow := tl.cfg.SlowThreshold > 0 && total >= tl.cfg.SlowThreshold
	if !tr.sampled && !slow {
		return TraceRecord{}, false
	}
	rec := TraceRecord{
		ID:           tr.id,
		Seq:          tr.seq,
		Endpoint:     tr.endpoint,
		Start:        tr.start,
		TotalSeconds: total.Seconds(),
		Stages:       make(map[string]float64, numTraceStages),
		Outcome:      outcome,
		Status:       status,
		Code:         code,
		CacheHit:     tr.cacheHit.Load(),
		Generation:   tr.gen.Load(),
		Sampled:      tr.sampled,
		Slow:         slow,
	}
	for i, s := range TraceStages() {
		off := tr.stageStart[i].Load()
		if off == 0 {
			continue
		}
		d := tr.stageDur[i].Load()
		if d == 0 {
			// Started, never ended: record the duration so far.
			d = total.Nanoseconds() - (off - 1) + 1
			if d < 1 {
				d = 1
			}
		}
		rec.Stages[string(s)] = time.Duration(d - 1).Seconds()
	}
	if tr.sampled {
		tl.sampled.Add(rec)
	}
	if slow {
		tl.slow.Add(rec)
	}
	return rec, true
}

// Ring names of a TraceDump.
const (
	// TraceRingRequests names the head/rate-sampled ring.
	TraceRingRequests = "requests"
	// TraceRingSlow names the threshold-gated slow ring.
	TraceRingSlow = "slow"
)

// TraceDumpSchema identifies the JSON layout of a trace-ring dump (the
// /debug/requests and /debug/slow payloads). Consumers match on this
// string; any breaking change to the shape must bump the version
// suffix.
const TraceDumpSchema = "transn.trace.serve/v1"

// TraceDump is a schema-stable snapshot of one trace ring plus the
// sampling policy that filled it.
type TraceDump struct {
	// Schema is always TraceDumpSchema.
	Schema string `json:"schema"`
	// Ring is TraceRingRequests or TraceRingSlow.
	Ring string `json:"ring"`
	// Capacity is the ring's fixed size; len(Traces) never exceeds it.
	Capacity int `json:"capacity"`
	// Seen counts every request the TraceLog traced; Kept counts
	// records ever appended to this ring (including since-overwritten
	// ones), so Kept/Seen is the ring's effective sampling fraction.
	Seen uint64 `json:"seen"`
	Kept uint64 `json:"kept"`
	// SampleHead and SampleRate echo the sampling policy.
	SampleHead int `json:"sample_head"`
	SampleRate int `json:"sample_rate"`
	// SlowThresholdSeconds echoes the slow-ring gate.
	SlowThresholdSeconds float64 `json:"slow_threshold_seconds"`
	// Traces are the ring's records, oldest first.
	Traces []TraceRecord `json:"traces"`
}

// dump snapshots one ring under the given name.
func (tl *TraceLog) dump(ring string, r *TraceRing) *TraceDump {
	return &TraceDump{
		Schema:               TraceDumpSchema,
		Ring:                 ring,
		Capacity:             r.Cap(),
		Seen:                 tl.seq.Load(),
		Kept:                 r.Total(),
		SampleHead:           tl.cfg.SampleHead,
		SampleRate:           tl.cfg.SampleRate,
		SlowThresholdSeconds: tl.cfg.SlowThreshold.Seconds(),
		Traces:               r.Dump(),
	}
}

// DumpRequests snapshots the sampled ring (nil on a nil log).
func (tl *TraceLog) DumpRequests() *TraceDump {
	if tl == nil {
		return nil
	}
	return tl.dump(TraceRingRequests, tl.sampled)
}

// DumpSlow snapshots the slow ring (nil on a nil log).
func (tl *TraceLog) DumpSlow() *TraceDump {
	if tl == nil {
		return nil
	}
	return tl.dump(TraceRingSlow, tl.slow)
}

// WriteTraceDump writes the dump as indented JSON with a trailing
// newline — the exact bytes /debug/requests and /debug/slow serve and
// `transn checkreport` validates.
func WriteTraceDump(w io.Writer, d *TraceDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ValidateTraceDump checks that data is a well-formed
// transn.trace.serve/v1 document: the expected schema string, a known
// ring name, capacity respected, and every record internally sound
// (non-empty ID/endpoint, declared stage names and outcome, finite
// non-negative durations, kept-for-a-reason). Unknown extra fields are
// allowed — the schema is append-only within a version.
func ValidateTraceDump(data []byte) error {
	var d TraceDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("trace dump is not valid JSON: %w", err)
	}
	if d.Schema != TraceDumpSchema {
		return fmt.Errorf("trace dump schema %q, want %q", d.Schema, TraceDumpSchema)
	}
	if d.Ring != TraceRingRequests && d.Ring != TraceRingSlow {
		return fmt.Errorf("trace dump ring %q, want %q or %q", d.Ring, TraceRingRequests, TraceRingSlow)
	}
	if d.Capacity < 1 {
		return fmt.Errorf("trace dump capacity = %d, want >= 1", d.Capacity)
	}
	if len(d.Traces) > d.Capacity {
		return fmt.Errorf("trace dump holds %d traces over capacity %d", len(d.Traces), d.Capacity)
	}
	if uint64(len(d.Traces)) > d.Kept {
		return fmt.Errorf("trace dump holds %d traces but kept only %d", len(d.Traces), d.Kept)
	}
	// Negative thresholds encode "slow capture disabled"; anything
	// non-finite is corrupt.
	if math.IsNaN(d.SlowThresholdSeconds) || math.IsInf(d.SlowThresholdSeconds, 0) {
		return fmt.Errorf("trace dump slow_threshold_seconds is not finite")
	}
	known := map[string]bool{}
	for _, s := range TraceStages() {
		known[string(s)] = true
	}
	for i, rec := range d.Traces {
		if rec.ID == "" {
			return fmt.Errorf("trace %d has an empty id", i)
		}
		if rec.Endpoint == "" {
			return fmt.Errorf("trace %d (%s) has an empty endpoint", i, rec.ID)
		}
		if !traceOutcomeKnown(rec.Outcome) {
			return fmt.Errorf("trace %d (%s) has unknown outcome %q", i, rec.ID, rec.Outcome)
		}
		if rec.Status < 100 || rec.Status > 599 {
			return fmt.Errorf("trace %d (%s) has status %d outside 100..599", i, rec.ID, rec.Status)
		}
		if math.IsNaN(rec.TotalSeconds) || math.IsInf(rec.TotalSeconds, 0) || rec.TotalSeconds < 0 {
			return fmt.Errorf("trace %d (%s): total_seconds = %v, want finite and non-negative",
				i, rec.ID, rec.TotalSeconds)
		}
		if !rec.Sampled && !rec.Slow {
			return fmt.Errorf("trace %d (%s) is neither sampled nor slow; it should not have been kept", i, rec.ID)
		}
		for name, sec := range rec.Stages {
			if !known[name] {
				return fmt.Errorf("trace %d (%s): unknown stage %q", i, rec.ID, name)
			}
			if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
				return fmt.Errorf("trace %d (%s): stage %q = %v, want finite and non-negative",
					i, rec.ID, name, sec)
			}
		}
	}
	return nil
}

// Structured serving-log field keys (log/slog attributes). Every
// constant-string attribute key at a slog call site must be one of
// these — transnlint's schema-registry analyzer enforces it — so log
// pipelines can index fields without chasing renames.
const (
	// LogKeyRequestID carries the request correlation ID.
	LogKeyRequestID = "request_id"
	// LogKeyEndpoint carries the serving endpoint label.
	LogKeyEndpoint = "endpoint"
	// LogKeyMethod and LogKeyPath carry the HTTP request line.
	LogKeyMethod = "method"
	LogKeyPath   = "path"
	// LogKeyStatus carries the HTTP status sent to the client.
	LogKeyStatus = "status"
	// LogKeyOutcome carries the TraceOutcome classification.
	LogKeyOutcome = "outcome"
	// LogKeyCode carries the transn.serve/v1 envelope code on errors.
	LogKeyCode = "code"
	// LogKeyDurationMS carries the request duration in milliseconds.
	LogKeyDurationMS = "duration_ms"
	// LogKeyCacheHit and LogKeyCoalesced carry the trace record's
	// CacheHit and Coalesced flags; the latter is always false.
	LogKeyCacheHit  = "cache_hit"
	LogKeyCoalesced = "coalesced"
	// LogKeyGeneration carries the serving snapshot generation.
	LogKeyGeneration = "generation"
	// LogKeyStage prefixes per-stage duration fields in slow-request
	// logs (grouped under LogKeyStages).
	LogKeyStages = "stages"
	// LogKeySlowThresholdMS carries the slow-log gate in milliseconds.
	LogKeySlowThresholdMS = "slow_threshold_ms"
	// LogKeyRule carries the name of an SLO watchdog rule.
	LogKeyRule = "rule"
	// LogKeyWindowSeconds carries the evaluation window a watchdog rule
	// judged (the actual covered span, not the configured one).
	LogKeyWindowSeconds = "window_seconds"
	// LogKeyObserved and LogKeyBudget carry a tripped rule's measured
	// value and the budget it violated.
	LogKeyObserved = "observed"
	LogKeyBudget   = "budget"
	// LogKeyAnomalyDir carries the directory an anomaly bundle was
	// captured into.
	LogKeyAnomalyDir = "anomaly_dir"
	// LogKeyError carries an error message on failure log lines.
	LogKeyError = "error"
)

// Structured serving-log levels, declared once so the access and slow
// logs keep stable, greppable severities.
const (
	// LogLevelAccess is the per-request access-log level.
	LogLevelAccess = slog.LevelInfo
	// LogLevelSlow is the slow-request log level.
	LogLevelSlow = slog.LevelWarn
)
