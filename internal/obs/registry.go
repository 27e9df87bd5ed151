package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Add is a single
// atomic op; shard loops should nevertheless accumulate into a plain
// local int64 and Add the total once at the shard boundary, which keeps
// the hot path free of even atomic traffic.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
// Allocation-free; pinned by TestHotPathsAllocFree.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
//
// Allocation-free; pinned by TestHistorySampleZeroAlloc.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric (e.g. the most recent mean
// loss). Set and Value are single atomic ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
// Allocation-free; pinned by TestHotPathsAllocFree.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
//
// Allocation-free; pinned by TestHistorySampleZeroAlloc.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper
// bounds in ascending order, with one implicit overflow bucket, so
// len(counts) == len(bounds)+1. Observe is lock-free (atomic adds; the
// sum uses a CAS loop). For shard loops, take a Local view, observe
// into it without any synchronization, and Flush at the shard boundary
// — the merge is exact, so concurrent shards sum to precisely the
// serial totals.
//
// Bucket-assignment contract (pinned by TestHistogramBucketContract):
// a value lands in the first bucket whose upper bound it does not
// exceed, so a value exactly on a bound belongs to that bound's bucket
// (bounds are inclusive). -Inf lands in the first bucket, +Inf in the
// overflow bucket, and NaN — which no comparison can place — in the
// overflow bucket as well. Non-finite samples are counted in Count and
// their bucket but excluded from Sum, so snapshots and the JSON run
// report stay encodable (encoding/json rejects NaN/±Inf) and a single
// poisoned sample cannot erase the sum of every healthy one; a
// non-finite stream is still visible as overflow/underflow mass.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
	n       atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

func (h *Histogram) bucket(v float64) int {
	// Buckets are few (fixed at registration); linear scan beats binary
	// search at these sizes and stays branch-predictable.
	for i, ub := range h.bounds {
		if v <= ub {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one sample. See the type doc for how non-finite
// samples are bucketed.
//
// Allocation-free; pinned by TestHotPathsAllocFree.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.n.Add(1)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Local returns an unsynchronized shard-local view of the histogram.
// A nil histogram yields a nil LocalHist, whose methods no-op.
func (h *Histogram) Local() *LocalHist {
	if h == nil {
		return nil
	}
	return &LocalHist{h: h, counts: make([]int64, len(h.counts))}
}

// LocalHist accumulates samples without synchronization; Flush merges
// them into the parent histogram with one atomic pass.
type LocalHist struct {
	h      *Histogram
	counts []int64
	sum    float64
	n      int64
}

// Observe records one sample locally (no atomics, no locks), under the
// same non-finite contract as Histogram.Observe.
//
// Allocation-free; pinned by TestHotPathsAllocFree.
func (l *LocalHist) Observe(v float64) {
	if l == nil {
		return
	}
	l.counts[l.h.bucket(v)]++
	l.n++
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	l.sum += v
}

// Flush merges the local samples into the parent and resets the local
// state, so a LocalHist can be reused across stages.
func (l *LocalHist) Flush() {
	if l == nil || l.n == 0 {
		return
	}
	for i, c := range l.counts {
		if c != 0 {
			l.h.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.h.n.Add(l.n)
	for {
		old := l.h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + l.sum)
		if l.h.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	l.sum, l.n = 0, 0
}

// HistSnapshot is the JSON form of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot returns a consistent-enough copy for reporting: individual
// fields are read atomically; cross-field skew is at most a few
// in-flight observations.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a named collection of metrics. Lookups take a mutex and
// are meant for stage boundaries or setup; training loops should
// resolve their metrics once and hold the pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns an unregistered counter whose updates go nowhere
// visible, so callers never branch.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket upper bounds on first use. Later calls ignore bounds — the
// first registration wins, keeping the bucket layout stable for a run.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric, with
// deterministic (map-based, name-keyed) structure for JSON encoding.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
