// Package obs is the training telemetry layer: a metrics registry
// (counters, gauges, fixed-bucket histograms), a span tracer that sums
// the time of every stage of Algorithm 1 by stage name, per-worker
// busy/idle accounting for the worker pool, a typed event stream
// (TrainEvent) for loss curves, and sinks — a schema-stable JSON run
// report and an optional pprof/metrics HTTP endpoint.
//
// The package is stdlib-only and race-safe. The design keeps telemetry
// off the training hot path: shard loops accumulate into plain local
// variables (or a LocalHist) and merge into the shared registry only at
// stage boundaries; the shared metric types use atomics, never locks,
// so a merge from one shard never stalls another. With no Run attached
// the instrumented code paths reduce to nil checks — see the cost
// budget in DESIGN.md §7.
package obs

import (
	"sync"
	"time"

	"transn/internal/ordered"
)

// Run collects one training (or benchmark) run's telemetry: a metrics
// registry, a stage tracer, and per-worker busy/idle accounting. A nil
// *Run is valid everywhere and disables collection; instrumentation
// sites guard with a single nil check per stage boundary.
type Run struct {
	Reg   *Registry
	Trace *Tracer

	start time.Time

	wmu     sync.Mutex
	workers map[int]*workerAgg
}

type workerAgg struct {
	busy   time.Duration
	idle   time.Duration
	shards int
}

// NewRun returns an empty telemetry run anchored at the current time.
func NewRun() *Run {
	return &Run{
		Reg:     NewRegistry(),
		Trace:   NewTracer(),
		start:   time.Now(),
		workers: map[int]*workerAgg{},
	}
}

// WorkerSample is one worker's contribution to a single pool fan-out:
// how long it spent inside shard bodies and how many shards it claimed.
// Idle time is derived as wall − busy for the fan-out it came from.
type WorkerSample struct {
	Worker int
	Busy   time.Duration
	Shards int
}

// RecordPool folds one worker-pool fan-out into the run's per-worker
// totals. wall is the fan-out's wall-clock duration; each worker's idle
// share is wall − busy (clamped at zero). Safe for concurrent use.
func (r *Run) RecordPool(wall time.Duration, samples []WorkerSample) {
	if r == nil || len(samples) == 0 {
		return
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	for _, s := range samples {
		w := r.workers[s.Worker]
		if w == nil {
			w = &workerAgg{}
			r.workers[s.Worker] = w
		}
		w.busy += s.Busy
		w.shards += s.Shards
		if idle := wall - s.Busy; idle > 0 {
			w.idle += idle
		}
	}
}

// WorkerSummary is the per-worker section of the run report.
type WorkerSummary struct {
	Worker      int     `json:"worker"`
	BusySeconds float64 `json:"busy_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	Shards      int     `json:"shards"`
}

// WorkerSummaries returns the accumulated per-worker totals sorted by
// worker index.
func (r *Run) WorkerSummaries() []WorkerSummary {
	if r == nil {
		return nil
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	out := make([]WorkerSummary, 0, len(r.workers))
	for _, w := range ordered.Keys(r.workers) {
		agg := r.workers[w]
		out = append(out, WorkerSummary{
			Worker:      w,
			BusySeconds: agg.busy.Seconds(),
			IdleSeconds: agg.idle.Seconds(),
			Shards:      agg.shards,
		})
	}
	return out
}

// Elapsed returns the wall-clock time since the run started.
func (r *Run) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}
