package obs

import (
	"sort"
	"sync"
	"time"

	"transn/internal/ordered"
)

// Tracer times named regions: the stages of Algorithm 1 (a walk corpus,
// a skip-gram pass, a cross-view pair step, an iteration), a benchmark
// experiment, or a server reload. It keeps one StageSummary per name,
// updated when a span ends, so its memory is bounded by the number of
// names however long the process runs. Spans end at stage boundaries,
// never inside shard loops, so the lock is uncontended in practice.
type Tracer struct {
	mu     sync.Mutex
	stages map[string]*StageSummary
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{stages: map[string]*StageSummary{}} }

// ActiveSpan is an in-progress span. End is nil-safe, so
// instrumentation reads naturally with a nil tracer:
// sp := tr.Start("walk") ... sp.End().
type ActiveSpan struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start begins a span. On a nil tracer it returns nil, and End on a nil
// *ActiveSpan no-ops.
func (t *Tracer) Start(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, start: time.Now()}
}

// End finishes the span, folds it into its name's summary, and returns
// its duration. A nil span returns 0.
func (a *ActiveSpan) End() time.Duration {
	if a == nil {
		return 0
	}
	d := time.Since(a.start)
	sec := d.Seconds()
	a.t.mu.Lock()
	sum := a.t.stages[a.name]
	if sum == nil {
		sum = &StageSummary{Name: a.name, MinSeconds: sec}
		a.t.stages[a.name] = sum
	}
	sum.Count++
	sum.TotalSeconds += sec
	sum.MinSeconds = min(sum.MinSeconds, sec)
	sum.MaxSeconds = max(sum.MaxSeconds, sec)
	a.t.mu.Unlock()
	return d
}

// StageSummary aggregates all spans sharing a name.
type StageSummary struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// Stages returns the per-name summaries, sorted by total time
// descending (ties broken by name) — the profile view of where a run's
// wall time went.
func (t *Tracer) Stages() []StageSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSummary, 0, len(t.stages))
	for _, name := range ordered.Keys(t.stages) {
		out = append(out, *t.stages[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSeconds != out[j].TotalSeconds {
			return out[i].TotalSeconds > out[j].TotalSeconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}
