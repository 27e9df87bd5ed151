// Package rngstream derives independent deterministic random streams
// from a single base seed. Every goroutine in the sharded training
// pipeline owns a private *rand.Rand whose seed is derived from the
// model seed plus a list of integer labels (stream kind, view index,
// shard index, iteration, ...). Centralizing the derivation in one
// helper keeps the stream layout auditable: no two code paths may share
// a rand.Rand across goroutines, and no two distinct label lists may
// collide onto the same stream.
//
// Derivation uses the SplitMix64 finalizer, whose avalanche behaviour
// makes nearby labels (view 0 vs view 1, shard 3 vs shard 4) produce
// statistically unrelated seeds. The math/rand generator seeded from
// the derived value then provides the stream.
//
// SplitMix64 is the whole generator behind mix64, as a value type, for
// a hot loop that cannot afford an interface call per draw: skip-gram
// seeds one per shard from the shard's *rand.Rand and draws every
// negative from it, and its Uint64 inlines into the pair step.
package rngstream

import "math/rand"

// mix64 is the SplitMix64 output function (Steele, Lea & Flood 2014):
// a bijective finalizer with full avalanche, so any change in the input
// flips roughly half the output bits.
func mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive returns a deterministic sub-seed for the stream identified by
// the label list. Labels are order-sensitive: Derive(s, 1, 2) and
// Derive(s, 2, 1) name different streams. With no labels the seed is
// still mixed once, so Derive(s) never equals s itself.
func Derive(seed int64, labels ...int64) int64 {
	x := mix64(uint64(seed))
	for _, l := range labels {
		x = mix64(x ^ mix64(uint64(l)))
	}
	return int64(x)
}

// New returns a private *rand.Rand for the stream identified by the
// label list. The returned generator must not be shared across
// goroutines; derive one stream per worker instead.
func New(seed int64, labels ...int64) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, labels...)))
}

// gamma is SplitMix64's counter increment, the odd integer nearest
// 2⁶⁴/φ.
const gamma = 0x9e3779b97f4a7c15

// SplitMix64 is Steele, Lea and Flood's SplitMix64 generator: the
// output is mix64 of a counter that steps by gamma. The zero value is
// the stream seeded with 0. It is a value type with no locking; each
// goroutine owns its own.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns the stream seeded with seed, whose first output
// is mix64(seed), as in the reference implementation.
func NewSplitMix64(seed uint64) SplitMix64 { return SplitMix64{state: seed} }

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	x := s.state
	s.state += gamma
	return mix64(x)
}
