package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"transn/internal/ordered"
)

// HistorySchema identifies the JSON layout of a metrics-history dump
// (the /debug/history payload). Consumers (`transn watch`, transnload's
// bench-report history section, `transn checkreport`) match on this
// string; any breaking change to the shape must bump the version
// suffix.
const HistorySchema = "transn.history/v1"

// Resolution names of a HistoryDump. Every dump carries exactly these
// two resolutions, fine first.
const (
	// HistoryResFine names the high-resolution ring (default 1s × 300:
	// the last five minutes at second granularity).
	HistoryResFine = "fine"
	// HistoryResCoarse names the low-resolution ring (default 10s × 360:
	// the last hour at ten-second granularity).
	HistoryResCoarse = "coarse"
)

// HistoryConfig sizes the flight recorder. The zero value means "use
// the documented default" for every field.
type HistoryConfig struct {
	// FineInterval is the high-resolution sampling period. 0 means 1s.
	FineInterval time.Duration
	// FineCapacity bounds the fine ring. 0 means 300 (five minutes at
	// the default interval).
	FineCapacity int
	// CoarseInterval is the low-resolution sampling period. 0 means 10s.
	CoarseInterval time.Duration
	// CoarseCapacity bounds the coarse ring. 0 means 360 (one hour at
	// the default interval).
	CoarseCapacity int
}

// withDefaults fills zero fields with the documented defaults.
func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.FineInterval <= 0 {
		c.FineInterval = time.Second
	}
	if c.FineCapacity <= 0 {
		c.FineCapacity = 300
	}
	if c.CoarseInterval <= 0 {
		c.CoarseInterval = 10 * time.Second
	}
	if c.CoarseCapacity <= 0 {
		c.CoarseCapacity = 360
	}
	return c
}

// histSeries is one tracked histogram's resolved handle plus its bucket
// layout, fixed at History construction.
type histSeries struct {
	name string
	h    *Histogram
}

// historySlot is one ring slot's preallocated storage: every slice is
// sized at construction so a sample tick writes in place and allocates
// nothing (pinned by TestHistorySampleZeroAlloc).
type historySlot struct {
	unixMS   int64
	offset   float64 // seconds since the history started
	counters []int64
	gauges   []float64
	// histCounts[k] holds histogram k's cumulative bucket counts
	// (len(bounds)+1); histSums/histNs its cumulative sum and count.
	histCounts [][]int64
	histSums   []float64
	histNs     []int64
}

// sampleRing is a fixed-capacity overwrite-oldest ring of samples. One
// mutex guards writes and dumps; the sampler writes at most once per
// interval, far off any request path.
type sampleRing struct {
	mu       sync.Mutex
	interval time.Duration
	slots    []historySlot
	total    uint64 // samples ever taken, including overwritten ones
}

// History is the telemetry flight recorder: a background sampler that
// snapshots a registry's counters, gauges and histogram bucket counts
// into two fixed-capacity overwrite-oldest rings (fine and coarse
// resolution). The tracked metric set is resolved once at construction
// — metrics registered later are not recorded — so the steady-state
// sample path performs only atomic loads into preallocated ring slots
// and allocates nothing. Windowed rates, deltas and interpolated
// latency quantiles are derived on demand (Dump, Window), never on the
// sample path.
type History struct {
	cfg   HistoryConfig
	start time.Time

	counterNames []string
	counters     []*Counter
	gaugeNames   []string
	gauges       []*Gauge
	hists        []histSeries

	fine   *sampleRing
	coarse *sampleRing
}

// NewHistory resolves the registry's current metric set and returns a
// recorder with both rings empty. Call Start to begin sampling, or
// drive sampleFine/sampleCoarse manually (tests do). A nil registry
// yields a recorder that tracks nothing but still serves valid dumps.
func NewHistory(reg *Registry, cfg HistoryConfig) *History {
	cfg = cfg.withDefaults()
	h := &History{cfg: cfg, start: time.Now()}
	if reg != nil {
		reg.mu.Lock()
		h.counterNames = ordered.Keys(reg.counters)
		for _, name := range h.counterNames {
			h.counters = append(h.counters, reg.counters[name])
		}
		h.gaugeNames = ordered.Keys(reg.gauges)
		for _, name := range h.gaugeNames {
			h.gauges = append(h.gauges, reg.gauges[name])
		}
		for _, name := range ordered.Keys(reg.hists) {
			h.hists = append(h.hists, histSeries{name: name, h: reg.hists[name]})
		}
		reg.mu.Unlock()
	}
	h.fine = h.newRing(cfg.FineInterval, cfg.FineCapacity)
	h.coarse = h.newRing(cfg.CoarseInterval, cfg.CoarseCapacity)
	return h
}

// newRing preallocates every slot's storage for the tracked metric set.
func (h *History) newRing(interval time.Duration, capacity int) *sampleRing {
	r := &sampleRing{interval: interval, slots: make([]historySlot, capacity)}
	for i := range r.slots {
		s := &r.slots[i]
		s.counters = make([]int64, len(h.counters))
		s.gauges = make([]float64, len(h.gauges))
		s.histCounts = make([][]int64, len(h.hists))
		for k, hs := range h.hists {
			s.histCounts[k] = make([]int64, len(hs.h.counts))
		}
		s.histSums = make([]float64, len(h.hists))
		s.histNs = make([]int64, len(h.hists))
	}
	return r
}

// sample takes one reading into the ring's next slot. All reads are
// atomic loads; all writes land in preallocated storage.
//
// Allocation-free; pinned by TestHistorySampleZeroAlloc.
func (h *History) sample(r *sampleRing) {
	r.mu.Lock()
	s := &r.slots[int(r.total%uint64(len(r.slots)))]
	now := time.Now()
	s.unixMS = now.UnixMilli()
	s.offset = now.Sub(h.start).Seconds()
	for i, c := range h.counters {
		s.counters[i] = c.Value()
	}
	for i, g := range h.gauges {
		s.gauges[i] = g.Value()
	}
	for k, hs := range h.hists {
		for b := range hs.h.counts {
			s.histCounts[k][b] = hs.h.counts[b].Load()
		}
		s.histSums[k] = math.Float64frombits(hs.h.sumBits.Load())
		s.histNs[k] = hs.h.n.Load()
	}
	r.total++
	r.mu.Unlock()
}

// sampleFine takes one fine-resolution reading now.
func (h *History) sampleFine() { h.sample(h.fine) }

// sampleCoarse takes one coarse-resolution reading now.
func (h *History) sampleCoarse() { h.sample(h.coarse) }

// Start launches the background sampler: a first reading lands in both
// rings immediately, then the fine and coarse tickers each drive their
// ring. The returned stop function halts the sampler and waits for its
// goroutine to exit; it is safe to call more than once. A nil History
// returns a no-op stop.
func (h *History) Start() (stop func()) {
	if h == nil {
		return func() {}
	}
	h.sampleFine()
	h.sampleCoarse()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		fine := time.NewTicker(h.cfg.FineInterval)
		defer fine.Stop()
		coarse := time.NewTicker(h.cfg.CoarseInterval)
		defer coarse.Stop()
		for {
			select {
			case <-done:
				return
			case <-fine.C:
				h.sampleFine()
			case <-coarse.C:
				h.sampleCoarse()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// resetSafeDelta returns the growth of a monotone counter between two
// readings, surviving a counter reset (process restart, registry swap):
// when cur < prev the counter restarted from zero, so the best estimate
// of the window's growth is cur itself.
func resetSafeDelta(prev, cur int64) int64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// HistoryQuantiles is one histogram's windowed quantile series: element
// i is the interpolated quantile of the samples observed between ring
// samples i-1 and i (element 0 covers an unknown partial window and is
// always zero, as is any interval with no observations).
type HistoryQuantiles struct {
	// P50/P90/P99 are the per-interval interpolated quantiles.
	P50 []float64 `json:"p50"`
	P90 []float64 `json:"p90"`
	P99 []float64 `json:"p99"`
	// Count is the number of observations in each interval.
	Count []int64 `json:"count"`
}

// HistoryResolution is one ring's section of a dump: parallel series,
// one element per retained sample, oldest first. Counters carry the raw
// cumulative readings; Rates are the derived per-second growth between
// consecutive samples (counter-reset safe, element 0 always zero).
type HistoryResolution struct {
	// Name is HistoryResFine or HistoryResCoarse.
	Name string `json:"name"`
	// IntervalSeconds is the configured sampling period.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Capacity is the ring's fixed size; no series exceeds it.
	Capacity int `json:"capacity"`
	// Taken counts samples ever taken, including overwritten ones.
	Taken uint64 `json:"taken"`
	// TimesUnixMS and OffsetSeconds locate each sample: wall-clock
	// milliseconds and seconds since the recorder started.
	TimesUnixMS   []int64   `json:"times_unix_ms"`
	OffsetSeconds []float64 `json:"offset_seconds"`
	// Counters maps metric name → cumulative reading series.
	Counters map[string][]int64 `json:"counters"`
	// Rates maps metric name → derived per-second rate series.
	Rates map[string][]float64 `json:"rates"`
	// Gauges maps metric name → sampled value series.
	Gauges map[string][]float64 `json:"gauges"`
	// Quantiles maps histogram name → windowed quantile series.
	Quantiles map[string]HistoryQuantiles `json:"quantiles,omitempty"`
}

// HistoryDump is the schema-stable snapshot of both rings — the
// /debug/history payload and the bench report's history section.
type HistoryDump struct {
	// Schema is always HistorySchema.
	Schema string `json:"schema"`
	// Resolutions holds the fine ring then the coarse ring.
	Resolutions []HistoryResolution `json:"resolutions"`
}

// dumpRing renders one ring into its dump section. Series are column-
// oriented (one slice per metric) so consumers index a metric once and
// get its whole curve.
func (h *History) dumpRing(name string, r *sampleRing) HistoryResolution {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	// Oldest-first slot order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = int((r.total + uint64(len(r.slots)) - uint64(n) + uint64(i)) % uint64(len(r.slots)))
	}
	res := HistoryResolution{
		Name:            name,
		IntervalSeconds: r.interval.Seconds(),
		Capacity:        len(r.slots),
		Taken:           r.total,
		TimesUnixMS:     make([]int64, n),
		OffsetSeconds:   make([]float64, n),
		Counters:        map[string][]int64{},
		Rates:           map[string][]float64{},
		Gauges:          map[string][]float64{},
	}
	for i, si := range idx {
		res.TimesUnixMS[i] = r.slots[si].unixMS
		res.OffsetSeconds[i] = r.slots[si].offset
	}
	for ci, cname := range h.counterNames {
		vals := make([]int64, n)
		rates := make([]float64, n)
		for i, si := range idx {
			vals[i] = r.slots[si].counters[ci]
			if i == 0 {
				continue // partial first window: no prior sample
			}
			dt := float64(res.TimesUnixMS[i]-res.TimesUnixMS[i-1]) / 1e3
			if dt <= 0 {
				dt = r.interval.Seconds()
			}
			rates[i] = float64(resetSafeDelta(vals[i-1], vals[i])) / dt
		}
		res.Counters[cname] = vals
		res.Rates[cname] = rates
	}
	for gi, gname := range h.gaugeNames {
		vals := make([]float64, n)
		for i, si := range idx {
			v := r.slots[si].gauges[gi]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // keep the dump JSON-encodable
			}
			vals[i] = v
		}
		res.Gauges[gname] = vals
	}
	if len(h.hists) > 0 {
		res.Quantiles = map[string]HistoryQuantiles{}
	}
	for k, hs := range h.hists {
		q := HistoryQuantiles{
			P50:   make([]float64, n),
			P90:   make([]float64, n),
			P99:   make([]float64, n),
			Count: make([]int64, n),
		}
		delta := HistSnapshot{
			Bounds: append([]float64(nil), hs.h.bounds...),
			Counts: make([]int64, len(hs.h.counts)),
		}
		for i := 1; i < n; i++ {
			prev, cur := &r.slots[idx[i-1]], &r.slots[idx[i]]
			windowHistDelta(&delta, cur.histCounts[k], prev.histCounts[k],
				cur.histNs[k], prev.histNs[k], cur.histSums[k], prev.histSums[k])
			q.Count[i] = delta.Count
			if delta.Count > 0 {
				q.P50[i] = sanitizeQuantile(delta.Quantile(0.50))
				q.P90[i] = sanitizeQuantile(delta.Quantile(0.90))
				q.P99[i] = sanitizeQuantile(delta.Quantile(0.99))
			}
		}
		res.Quantiles[hs.name] = q
	}
	return res
}

// windowHistDelta fills dst's Counts/Count/Sum with the reset-safe
// difference of two cumulative histogram readings. A count reset in any
// bucket means the histogram restarted inside the window, so the newer
// cumulative reading itself is the best window estimate.
func windowHistDelta(dst *HistSnapshot, curCounts, prevCounts []int64, curN, prevN int64, curSum, prevSum float64) {
	if curN < prevN {
		copy(dst.Counts, curCounts)
		dst.Count = curN
		dst.Sum = curSum
		return
	}
	for b := range dst.Counts {
		dst.Counts[b] = resetSafeDelta(prevCounts[b], curCounts[b])
	}
	dst.Count = curN - prevN
	dst.Sum = curSum - prevSum
	if dst.Sum < 0 {
		dst.Sum = curSum
	}
}

// sanitizeQuantile zeroes the NaN an empty-window Quantile returns (and
// any other non-finite estimate) so history dumps always JSON-encode.
func sanitizeQuantile(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Dump snapshots both rings into a schema-stable document. Nil-safe: a
// nil History returns nil.
func (h *History) Dump() *HistoryDump {
	if h == nil {
		return nil
	}
	return &HistoryDump{
		Schema: HistorySchema,
		Resolutions: []HistoryResolution{
			h.dumpRing(HistoryResFine, h.fine),
			h.dumpRing(HistoryResCoarse, h.coarse),
		},
	}
}

// HistoryWindow is an aggregate over the most recent fine-ring window:
// the inputs the SLO watchdog's burn-rate rules evaluate. Deltas are
// counter-reset safe. The serve.* and runtime.* fields are zero when
// the corresponding metric was not registered at History construction.
type HistoryWindow struct {
	// Seconds is the actual covered span (newest sample minus the
	// oldest sample inside the requested window); Samples how many ring
	// samples the window spans.
	Seconds float64
	Samples int
	// Requests and Errors are the serve.requests / serve.errors deltas;
	// ErrorRate is Errors/Requests (0 when no requests).
	Requests  int64
	Errors    int64
	ErrorRate float64
	// CacheLookups is the hits+misses delta; CacheHitRate is
	// hits/(hits+misses) over the window (0 when no lookups).
	CacheLookups int64
	CacheHitRate float64
	// P99Seconds is the windowed interpolated p99 of
	// serve.latency_seconds (0 when the window saw no requests).
	P99Seconds float64
	// MaxGoroutines and MaxHeapBytes are the window maxima of the
	// runtime.goroutines / runtime.heap_alloc_bytes gauges.
	MaxGoroutines float64
	MaxHeapBytes  float64
}

// counterIndex resolves a tracked counter's slot index, -1 when the
// metric was not registered at construction.
func (h *History) counterIndex(name string) int {
	for i, n := range h.counterNames {
		if n == name {
			return i
		}
	}
	return -1
}

// gaugeIndex resolves a tracked gauge's slot index, -1 when absent.
func (h *History) gaugeIndex(name string) int {
	for i, n := range h.gaugeNames {
		if n == name {
			return i
		}
	}
	return -1
}

// histIndex resolves a tracked histogram's slot index, -1 when absent.
func (h *History) histIndex(name string) int {
	for i, hs := range h.hists {
		if hs.name == name {
			return i
		}
	}
	return -1
}

// Window aggregates the fine ring over the trailing seconds. It returns
// ok=false when the ring holds fewer than two samples (no delta exists
// yet) — the watchdog treats that as "nothing to judge". A window
// longer than the retained history clamps to the whole ring.
func (h *History) Window(seconds float64) (HistoryWindow, bool) {
	if h == nil {
		return HistoryWindow{}, false
	}
	r := h.fine
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	if n < 2 {
		return HistoryWindow{}, false
	}
	newest := &r.slots[int((r.total-1)%uint64(len(r.slots)))]
	// Walk backwards to the oldest retained sample still inside the
	// window. The walk always keeps at least one step back (oldestI=2,
	// the sample before newest) so a window shorter than one interval
	// still yields a real delta.
	oldestI := 2
	for i := 3; i <= n; i++ {
		s := &r.slots[int((r.total-uint64(i))%uint64(len(r.slots)))]
		if newest.offset-s.offset > seconds {
			break
		}
		oldestI = i
	}
	oldest := &r.slots[int((r.total-uint64(oldestI))%uint64(len(r.slots)))]
	w := HistoryWindow{
		Seconds: newest.offset - oldest.offset,
		Samples: oldestI,
	}
	if ci := h.counterIndex(MetricServeRequests); ci >= 0 {
		w.Requests = resetSafeDelta(oldest.counters[ci], newest.counters[ci])
	}
	if ci := h.counterIndex(MetricServeErrors); ci >= 0 {
		w.Errors = resetSafeDelta(oldest.counters[ci], newest.counters[ci])
	}
	if w.Requests > 0 {
		w.ErrorRate = float64(w.Errors) / float64(w.Requests)
	}
	var hits, misses int64
	if ci := h.counterIndex(MetricServeCacheHits); ci >= 0 {
		hits = resetSafeDelta(oldest.counters[ci], newest.counters[ci])
	}
	if ci := h.counterIndex(MetricServeCacheMisses); ci >= 0 {
		misses = resetSafeDelta(oldest.counters[ci], newest.counters[ci])
	}
	w.CacheLookups = hits + misses
	if w.CacheLookups > 0 {
		w.CacheHitRate = float64(hits) / float64(w.CacheLookups)
	}
	if hi := h.histIndex(MetricServeLatency); hi >= 0 {
		delta := HistSnapshot{
			Bounds: append([]float64(nil), h.hists[hi].h.bounds...),
			Counts: make([]int64, len(h.hists[hi].h.counts)),
		}
		windowHistDelta(&delta, newest.histCounts[hi], oldest.histCounts[hi],
			newest.histNs[hi], oldest.histNs[hi], newest.histSums[hi], oldest.histSums[hi])
		if delta.Count > 0 {
			w.P99Seconds = sanitizeQuantile(delta.Quantile(0.99))
		}
	}
	maxGauge := func(name string) float64 {
		gi := h.gaugeIndex(name)
		if gi < 0 {
			return 0
		}
		max := 0.0
		for i := 1; i <= oldestI; i++ {
			v := r.slots[int((r.total-uint64(i))%uint64(len(r.slots)))].gauges[gi]
			if !math.IsNaN(v) && !math.IsInf(v, 0) && v > max {
				max = v
			}
		}
		return max
	}
	w.MaxGoroutines = maxGauge(MetricRuntimeGoroutines)
	w.MaxHeapBytes = maxGauge(MetricRuntimeHeapAlloc)
	return w, true
}

// WriteHistoryDump writes the dump as indented JSON with a trailing
// newline — the exact bytes /debug/history serves and `transn
// checkreport` validates.
func WriteHistoryDump(w io.Writer, d *HistoryDump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ValidateHistoryDump checks that data is a well-formed
// transn.history/v1 document (see CheckHistoryDump for the rules).
func ValidateHistoryDump(data []byte) error {
	var d HistoryDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("history dump is not valid JSON: %w", err)
	}
	return CheckHistoryDump(&d)
}

// CheckHistoryDump validates a decoded dump: the expected schema, both
// resolution names in order, capacities respected, every series exactly
// as long as its time axis, times non-decreasing, and every value
// finite. Unknown extra fields are allowed — the schema is append-only
// within a version.
func CheckHistoryDump(d *HistoryDump) error {
	if d == nil {
		return fmt.Errorf("history dump is nil")
	}
	if d.Schema != HistorySchema {
		return fmt.Errorf("history dump schema %q, want %q", d.Schema, HistorySchema)
	}
	if len(d.Resolutions) != 2 || d.Resolutions[0].Name != HistoryResFine || d.Resolutions[1].Name != HistoryResCoarse {
		return fmt.Errorf("history dump must hold resolutions [%q, %q] in order", HistoryResFine, HistoryResCoarse)
	}
	for ri := range d.Resolutions {
		res := &d.Resolutions[ri]
		if res.IntervalSeconds <= 0 || math.IsNaN(res.IntervalSeconds) || math.IsInf(res.IntervalSeconds, 0) {
			return fmt.Errorf("resolution %q: interval_seconds = %v, want finite and positive", res.Name, res.IntervalSeconds)
		}
		if res.Capacity < 1 {
			return fmt.Errorf("resolution %q: capacity = %d, want >= 1", res.Name, res.Capacity)
		}
		n := len(res.TimesUnixMS)
		if n > res.Capacity {
			return fmt.Errorf("resolution %q holds %d samples over capacity %d", res.Name, n, res.Capacity)
		}
		if uint64(n) > res.Taken {
			return fmt.Errorf("resolution %q holds %d samples but taken is %d", res.Name, n, res.Taken)
		}
		if len(res.OffsetSeconds) != n {
			return fmt.Errorf("resolution %q: offset_seconds length %d != %d samples", res.Name, len(res.OffsetSeconds), n)
		}
		for i := 1; i < n; i++ {
			if res.TimesUnixMS[i] < res.TimesUnixMS[i-1] {
				return fmt.Errorf("resolution %q: times_unix_ms decreases at index %d", res.Name, i)
			}
			if res.OffsetSeconds[i] < res.OffsetSeconds[i-1] {
				return fmt.Errorf("resolution %q: offset_seconds decreases at index %d", res.Name, i)
			}
		}
		for name, series := range res.Counters {
			if len(series) != n {
				return fmt.Errorf("resolution %q: counter %q has %d points for %d samples", res.Name, name, len(series), n)
			}
			for i, v := range series {
				if v < 0 {
					return fmt.Errorf("resolution %q: counter %q is negative at index %d", res.Name, name, i)
				}
			}
		}
		for name, series := range res.Rates {
			if len(series) != n {
				return fmt.Errorf("resolution %q: rate %q has %d points for %d samples", res.Name, name, len(series), n)
			}
			if _, ok := res.Counters[name]; !ok {
				return fmt.Errorf("resolution %q: rate %q has no matching counter series", res.Name, name)
			}
			for i, v := range series {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("resolution %q: rate %q = %v at index %d, want finite and non-negative", res.Name, name, v, i)
				}
			}
		}
		for name, series := range res.Gauges {
			if len(series) != n {
				return fmt.Errorf("resolution %q: gauge %q has %d points for %d samples", res.Name, name, len(series), n)
			}
			for i, v := range series {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("resolution %q: gauge %q is not finite at index %d", res.Name, name, i)
				}
			}
		}
		for name, q := range res.Quantiles {
			for _, s := range []struct {
				label  string
				series []float64
			}{{"p50", q.P50}, {"p90", q.P90}, {"p99", q.P99}} {
				if len(s.series) != n {
					return fmt.Errorf("resolution %q: quantile %q/%s has %d points for %d samples", res.Name, name, s.label, len(s.series), n)
				}
				for i, v := range s.series {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						return fmt.Errorf("resolution %q: quantile %q/%s = %v at index %d, want finite and non-negative", res.Name, name, s.label, v, i)
					}
				}
			}
			if len(q.Count) != n {
				return fmt.Errorf("resolution %q: quantile %q/count has %d points for %d samples", res.Name, name, len(q.Count), n)
			}
			for i, v := range q.Count {
				if v < 0 {
					return fmt.Errorf("resolution %q: quantile %q/count is negative at index %d", res.Name, name, i)
				}
			}
		}
	}
	return nil
}
