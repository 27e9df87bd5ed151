package walk

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"transn/internal/rngstream"
)

// chiSquareBound is the chi-square statistic that df degrees of freedom
// exceed with probability about 1e-6, by the Wilson–Hilferty cube
// approximation at z = 4.75. It overstates the true quantile slightly
// for small df, which keeps the test conservative.
func chiSquareBound(df int) float64 {
	const z = 4.75
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestAliasChiSquare draws from tables of n ∈ {1, 2, 3, 64, 1000}
// outcomes, every fifth weight zero (outcome 0 keeps a positive weight),
// through Draw and through Pick over a SplitMix64 stream, and requires
// the counts of the positive outcomes to pass a chi-square test against
// the weights, and no zero-weight outcome to be drawn.
func TestAliasChiSquare(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 1000} {
		wrng := rand.New(rand.NewSource(int64(n)))
		ws := make([]float64, n)
		var total float64
		for i := range ws {
			if i%5 != 4 {
				ws[i] = 0.5 + wrng.Float64()
				total += ws[i]
			}
		}
		a := NewAlias(ws)
		draws := 200 * n
		rng := rand.New(rand.NewSource(7))
		stream := rngstream.NewSplitMix64(7)
		for _, src := range []struct {
			name string
			draw func() int
		}{
			{"Draw", func() int { return a.Draw(rng) }},
			{"Pick", func() int { return a.Pick(stream.Uint64()) }},
		} {
			counts := make([]int, n)
			for k := 0; k < draws; k++ {
				counts[src.draw()]++
			}
			var chi2 float64
			df := -1
			for i, w := range ws {
				if w == 0 {
					if counts[i] != 0 {
						t.Fatalf("n=%d %s: zero-weight outcome %d drawn %d times", n, src.name, i, counts[i])
					}
					continue
				}
				e := float64(draws) * w / total
				d := float64(counts[i]) - e
				chi2 += d * d / e
				df++
			}
			if df == 0 {
				if counts[0] != draws {
					t.Fatalf("n=%d %s: single outcome drawn %d of %d times", n, src.name, counts[0], draws)
				}
				continue
			}
			if bound := chiSquareBound(df); chi2 > bound {
				t.Fatalf("n=%d %s: chi-square %.1f over %d degrees of freedom, bound %.1f", n, src.name, chi2, df, bound)
			}
		}
	}
}

// TestAliasZeroWeightColumns checks the table itself: a zero-weight
// outcome's column keeps nothing and no column aliases to it, so no
// word can pick it.
func TestAliasZeroWeightColumns(t *testing.T) {
	ws := []float64{0, 3, 0, 0, 1, 0, 2, 0}
	a := NewAlias(ws)
	for i, e := range a.entries {
		if ws[i] == 0 && e.threshold != 0 {
			t.Errorf("zero-weight column %d has threshold %#x", i, e.threshold)
		}
		if ws[e.alias] == 0 {
			t.Errorf("column %d aliases to zero-weight outcome %d", i, e.alias)
		}
	}
}

// TestAliasColumnClamp pins the threshold arithmetic at the top of the
// range: the largest float64 below 1 gives the exact threshold
// 2⁶⁴ − 2¹¹, and a probability of 1, or one that rounding has pushed
// just above it, gives a full column of 2⁶⁴ − 1 that aliases to itself
// instead of overflowing the conversion.
func TestAliasColumnClamp(t *testing.T) {
	below := column(5, math.Nextafter(1, 0), 2)
	if want := uint64(1<<64 - 1<<11); below.threshold != want || below.alias != 2 {
		t.Fatalf("column(5, 1−2⁻⁵³, 2) = %+v, want threshold %#x alias 2", below, want)
	}
	for _, p := range []float64{1, math.Nextafter(1, 2), 1 + 1e-9} {
		if c := column(5, p, 2); c.threshold != 1<<64-1 || c.alias != 5 {
			t.Fatalf("column(5, %v, 2) = %+v, want a full column aliasing to 5", p, c)
		}
	}
	if c := column(5, 0, 2); c.threshold != 0 || c.alias != 2 {
		t.Fatalf("column(5, 0, 2) = %+v, want threshold 0 alias 2", c)
	}
	// A full column returns its own outcome even for the largest
	// fractional word, which its threshold does not exceed.
	a := &Alias{entries: []aliasEntry{column(0, 1, 0)}, n: 1}
	if got := a.Pick(1<<64 - 1); got != 0 {
		t.Fatalf("full column picked %d for the largest word", got)
	}
}

// TestPickSplitsTheWord checks Pick against its definition on random
// words: the high word of u·n names the column, and the low word keeps
// it when below the column's threshold.
func TestPickSplitsTheWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := make([]float64, 37)
	for i := range ws {
		ws[i] = rng.ExpFloat64()
	}
	a := NewAlias(ws)
	for k := 0; k < 100000; k++ {
		u := rng.Uint64()
		hi, lo := bits.Mul64(u, 37)
		want := int(a.entries[hi].alias)
		if lo < a.entries[hi].threshold {
			want = int(hi)
		}
		if got := a.Pick(u); got != want {
			t.Fatalf("Pick(%#x) = %d, want %d", u, got, want)
		}
	}
}

// BenchmarkAliasDraw times one draw from tables of a negative-sampler
// size and of a node's neighbour-list size, through Draw's rng.Uint64
// and through Pick over an inlined SplitMix64 stream.
func BenchmarkAliasDraw(b *testing.B) {
	for _, n := range []int{7, 10000} {
		rng := rand.New(rand.NewSource(1))
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.ExpFloat64()
		}
		a := NewAlias(ws)
		b.Run(fmt.Sprintf("n=%d/Draw", n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += a.Draw(rng)
			}
			aliasSink = sink
		})
		b.Run(fmt.Sprintf("n=%d/Pick", n), func(b *testing.B) {
			s := rngstream.NewSplitMix64(1)
			var sink int
			for i := 0; i < b.N; i++ {
				sink += a.Pick(s.Uint64())
			}
			aliasSink = sink
		})
	}
}

// aliasSink keeps the benchmarked draws live.
var aliasSink int
