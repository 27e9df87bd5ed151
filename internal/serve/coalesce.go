package serve

import (
	"sync"
	"sync/atomic"

	"transn/internal/obs"
)

// coalescer batches concurrent identical computations and bounds how
// many distinct translator forward passes run at once. Identical
// in-flight requests (same snapshot generation + endpoint + arguments)
// share one execution — the duplicates block on the leader's result
// instead of re-running the Eq. 8–10 stack — and distinct requests
// queue on a semaphore so a traffic spike cannot run an unbounded
// number of forward passes concurrently. True cross-request matrix
// batching is deliberately NOT done: the translator's self-attention
// mixes path rows, so packing different nodes into one path matrix
// would change each node's result (see DESIGN.md §10). A forward pass
// runs on a pooled, reused tape and allocates only its result, so what
// the coalescer saves is the pass's CPU time (tens of µs at d=64, L=8,
// H=2), not garbage.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*inflightCall
	sem      chan struct{}

	depth     atomic.Int64
	gauge     *obs.Gauge   // serve.queue_depth; nil-safe per obs contract
	coalesced *obs.Counter // serve.coalesced; nil-safe per obs contract
}

// inflightCall is one leader execution that duplicates wait on.
type inflightCall struct {
	done chan struct{}
	val  []float64
	err  error
}

// newCoalescer builds a coalescer running at most workers computations
// concurrently. workers < 1 is clamped to 1. coalesced, when non-nil,
// counts callers that joined an in-flight leader instead of running
// their own computation.
func newCoalescer(workers int, gauge *obs.Gauge, coalesced *obs.Counter) *coalescer {
	if workers < 1 {
		workers = 1
	}
	return &coalescer{
		inflight:  map[string]*inflightCall{},
		sem:       make(chan struct{}, workers),
		gauge:     gauge,
		coalesced: coalesced,
	}
}

// do runs fn for key, deduplicating against identical in-flight calls
// and respecting the concurrency bound. Every caller of the same key
// receives the leader's (val, err); callers must not mutate val.
//
// The caller's trace (nil-safe) records where the time went: a
// follower's whole wait on the leader is its coalesce_wait stage (it
// runs no forward pass of its own, so it records no forward stage); a
// leader's semaphore wait is coalesce_wait and its fn execution is
// forward.
func (c *coalescer) do(tr *obs.ReqTrace, key string, fn func() ([]float64, error)) ([]float64, error) {
	c.mu.Lock()
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		tr.SetCoalesced()
		tr.StartStage(obs.TraceStageCoalesceWait)
		<-call.done
		tr.EndStage(obs.TraceStageCoalesceWait)
		return call.val, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	c.gauge.Set(float64(c.depth.Add(1)))
	tr.StartStage(obs.TraceStageCoalesceWait)
	c.sem <- struct{}{}
	tr.EndStage(obs.TraceStageCoalesceWait)
	tr.StartStage(obs.TraceStageForward)
	call.val, call.err = fn()
	tr.EndStage(obs.TraceStageForward)
	<-c.sem
	c.gauge.Set(float64(c.depth.Add(-1)))

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.done)
	return call.val, call.err
}
