// Package walk implements the random-walk machinery of the paper's
// single-view algorithm (Section III-A) and the walkers the baselines
// need: simple uniform walks, weight-biased walks (Eq. 6), correlated
// walks on heter-views (Eqs. 4–7), node2vec (p,q) walks, and meta-path
// constrained walks. Walk corpora follow the paper's per-node path count
// max(min(degree, 32), 10).
//
// The weighted walkers, LINE's edge sampler and the skip-gram negative
// sampler draw through an Alias table, which picks an outcome from one
// uniform 64-bit word (Alias.Pick) with no float and no division:
// Alias.Draw takes that word from rng.Uint64, and skip-gram passes the
// next word of its inlined rngstream.SplitMix64 stream.
package walk

import (
	"math/bits"
	"math/rand"
)

// Alias is a Vose alias table for O(1) sampling from a discrete
// distribution. Construction is O(n).
type Alias struct {
	entries []aliasEntry
	n       uint64
}

// aliasEntry is one column of the table: the column's own outcome is
// kept when the fractional word of a pick is below threshold, and alias
// is taken otherwise. A full column aliases to itself.
type aliasEntry struct {
	threshold uint64
	alias     int32
}

// column returns the entry of outcome i for acceptance probability
// prob and alias a. The threshold is prob·2⁶⁴, which is exact for every
// float64 below 1 and so fits a uint64; a probability of 1 or more (the
// leftover columns of Vose's method, which rounding can push just above
// 1) cannot, so such a column keeps 2⁶⁴−1 and aliases to itself, and
// every pick of it returns i.
func column(i int, prob float64, a int32) aliasEntry {
	if prob >= 1 {
		return aliasEntry{threshold: 1<<64 - 1, alias: int32(i)}
	}
	return aliasEntry{threshold: uint64(prob * (1 << 64)), alias: a}
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
	a := &Alias{entries: make([]aliasEntry, n), n: uint64(n)}
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
		a.entries[s] = column(int(s), scaled[s], l)
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		a.entries[l] = column(int(l), 1, 0)
	}
	for _, s := range small {
		a.entries[s] = column(int(s), 1, 0)
	}
	return a
}

// Pick returns the outcome that the uniform word u selects. The high
// word of u·n is the column, uniform over [0, n); the low word is the
// fraction of the way through that column, uniform to within n/2⁶⁴,
// and keeps the column when it is below the column's threshold.
func (a *Alias) Pick(u uint64) int {
	hi, lo := bits.Mul64(u, a.n)
	e := a.entries[hi]
	if lo < e.threshold {
		return int(hi)
	}
	return int(e.alias)
}

// Draw samples an index from the table with one rng.Uint64 call.
func (a *Alias) Draw(rng *rand.Rand) int { return a.Pick(rng.Uint64()) }

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.entries) }
