// Package locks exercises the lock-order analyzer: AB/BA acquisition
// cycles, locks not released on every path, and raw sync/atomic calls.
package locks

import (
	"sync"
	"sync/atomic"
)

// pair holds two mutexes the functions below acquire in both orders.
type pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// AB takes a then b — one half of the cycle.
func (p *pair) AB() {
	p.a.Lock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}

// BA takes b then a — the opposite order; the back edge closes the
// cycle here.
func (p *pair) BA() {
	p.b.Lock()
	p.a.Lock() // want lock.cycle
	p.n++
	p.a.Unlock()
	p.b.Unlock()
}

// lockB locks b briefly — callee for the interprocedural edge.
func (p *pair) lockB() {
	p.b.Lock()
	p.b.Unlock()
}

// Nested takes a and calls lockB: an a→b edge through the call graph
// (already present from AB, so no extra cycle).
func (p *pair) Nested() {
	p.a.Lock()
	p.lockB()
	p.a.Unlock()
}

// Leaky forgets to unlock on the early return.
func (p *pair) Leaky(fail bool) {
	p.a.Lock() // want lock.unbalanced
	if fail {
		return
	}
	p.a.Unlock()
}

// Twice re-acquires a mutex it already holds — self-deadlock.
func (p *pair) Twice() {
	p.a.Lock()
	p.a.Lock() // want lock.cycle
	p.a.Unlock()
	p.a.Unlock()
}

// EarlyOut unlocks on both paths: clean.
func (p *pair) EarlyOut(skip bool) {
	p.a.Lock()
	if skip {
		p.a.Unlock()
		return
	}
	p.n++
	p.a.Unlock()
}

// Deferred relies on the deferred unlock: clean.
func (p *pair) Deferred() {
	p.a.Lock()
	defer p.a.Unlock()
	p.n++
}

// Looped continues inside the critical section and unlocks at the end:
// clean.
func (p *pair) Looped(xs []int) {
	p.a.Lock()
	for _, x := range xs {
		if x == 0 {
			continue
		}
		p.n += x
	}
	p.a.Unlock()
}

// Handoff intentionally exits holding the lock; Release is the pair.
func (p *pair) Handoff() {
	//lint:ignore lock.unbalanced ownership passes to the caller, released by Release
	p.a.Lock()
	p.n++
}

// Release matches Handoff.
func (p *pair) Release() {
	p.a.Unlock()
}

// Quiet holds the stale suppressions.
func (p *pair) Quiet() {
	// want-next lint.unused-suppression
	//lint:ignore lock.cycle no ordering edge on this line
	p.n = 0
	// want-next lint.unused-suppression
	//lint:ignore lock.unbalanced nothing held on this line
	p.n = 1
}

// counters holds one shared counter of each kind.
type counters struct {
	raw   int64
	typed atomic.Int64
}

// Bump updates the typed wrapper (clean) and the plain field through
// raw sync/atomic calls.
func (c *counters) Bump() int64 {
	c.typed.Add(1)
	atomic.AddInt64(&c.raw, 1)      // want lock.raw-atomic
	return atomic.LoadInt64(&c.raw) // want lock.raw-atomic
}
