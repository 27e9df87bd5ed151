// Package walk implements the random-walk machinery of the paper's
// single-view algorithm (Section III-A) and the walkers the baselines
// need: simple uniform walks, weight-biased walks (Eq. 6), correlated
// walks on heter-views (Eqs. 4–7), node2vec (p,q) walks, and meta-path
// constrained walks. Walk corpora follow the paper's per-node path count
// max(min(degree, 32), 10).
//
// The weighted walkers, LINE's edge sampler and the skip-gram negative
// sampler draw through Alias.Draw, which takes no division: it returns
// the index, and leaves the rng in the state, that rng.Intn(n)
// followed by rng.Float64() would.
package walk

import (
	"math/bits"
	"math/rand"
)

// Alias is a Vose alias table for O(1) sampling from a discrete
// distribution. Construction is O(n).
//
// Draw consumes the rng exactly as rng.Intn(n) followed by
// rng.Float64() and returns the index they select, but without a
// division (see intn).
type Alias struct {
	entries []aliasEntry
	pick    intn
}

// aliasEntry keeps an outcome's acceptance probability next to its
// alias, so a draw reads one cache line.
type aliasEntry struct {
	prob  float64
	alias int32
}

// NewAlias builds an alias table over weights (non-negative, at least one
// positive). Weights need not be normalized.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("walk: NewAlias with empty weights")
	}
	if n > 1<<31-1 {
		panic("walk: NewAlias with more than 2^31-1 weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("walk: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("walk: all weights zero")
	}
	a := &Alias{entries: make([]aliasEntry, n), pick: newIntn(n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.entries[s] = aliasEntry{prob: scaled[s], alias: l}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.entries[l].prob = 1
	}
	for _, s := range small {
		a.entries[s].prob = 1
	}
	return a
}

// Draw samples an index from the table. It returns what
// i := rng.Intn(n) followed by rng.Float64() < prob[i] selects, and
// leaves rng in the same state.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := a.pick.draw(rng)
	e := a.entries[i]
	if rng.Float64() < e.prob {
		return int(i)
	}
	return int(e.alias)
}

// intn is rng.Intn(n) for one n in [1, 2³¹−1] with the division taken
// out: Int31n's rejection bound is computed once, and its v % n is
// fastmod.
type intn struct {
	n     uint32
	bound int32  // Int31n's largest accepted Int31 value
	mult  uint64 // fastmod multiplier ⌈2⁶⁴/n⌉ mod 2⁶⁴ (0 for n = 1)
}

func newIntn(n int) intn {
	return intn{
		n:     uint32(n),
		bound: int32(1<<31 - 1 - (1<<31)%uint32(n)),
		mult:  ^uint64(0)/uint64(n) + 1,
	}
}

// draw returns rng.Intn(n) and consumes the same Int31 values: Int31n's
// rejection loop, then v % n. A power of two needs no separate mask:
// its bound, 2³¹−1, rejects nothing, and fastmod gives v & (n−1), which
// is what Int31n's mask branch returns.
func (p intn) draw(rng *rand.Rand) uint32 {
	v := rng.Int31()
	for v > p.bound {
		v = rng.Int31()
	}
	return fastmod(uint32(v), p.mult, p.n)
}

// fastmod returns v % n for mult = ⌈2⁶⁴/n⌉ (mod 2⁶⁴) without a
// division: the low 64 bits of mult·v are the fraction v/n scaled by
// 2⁶⁴, and their product with n carries v % n into the high word. It
// is exact for every 32-bit v and n ≥ 1 (Lemire, Kaser and Kurz,
// "Faster Remainder by Direct Computation", 2019).
func fastmod(v uint32, mult uint64, n uint32) uint32 {
	hi, _ := bits.Mul64(mult*uint64(v), uint64(n))
	return uint32(hi)
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.entries) }
