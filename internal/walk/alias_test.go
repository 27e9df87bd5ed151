package walk

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceDraw is the alias draw written with the library calls
// Alias.Draw replaces: rng.Intn, then rng.Float64.
func referenceDraw(a *Alias, rng *rand.Rand) int {
	i := rng.Intn(len(a.entries))
	if rng.Float64() < a.entries[i].prob {
		return i
	}
	return int(a.entries[i].alias)
}

// TestAliasDrawMatchesIntnFloat64 requires Draw to return the reference
// index and to leave its rng in the reference's state, on tables whose
// sizes cover n = 1, powers of two, small odd sizes and a large prime.
func TestAliasDrawMatchesIntnFloat64(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 1004, 65537, 1000003} {
		wrng := rand.New(rand.NewSource(int64(n)))
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = wrng.ExpFloat64()
		}
		a := NewAlias(ws)
		got, want := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41))
		for k := 0; k < 5000; k++ {
			if g, w := a.Draw(got), referenceDraw(a, want); g != w {
				t.Fatalf("n=%d draw %d: Draw = %d, reference %d", n, k, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: next Int63 after the draws is %d, reference %d", n, g, w)
		}
	}
}

// TestIntnMatchesRandIntn checks the division-free rng.Intn on its own,
// without building a table, at sizes where Int31n's rejection loop runs
// often (n just above a power of two rejects almost half the values)
// as well as at n = 1, powers of two and 2³¹−1.
func TestIntnMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1 << 20, 1<<30 + 1, 3 << 29, 1<<31 - 2, 1<<31 - 1} {
		p := newIntn(n)
		got, want := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
		for k := 0; k < 2000; k++ {
			if g, w := p.draw(got), want.Intn(n); int(g) != w {
				t.Fatalf("n=%d draw %d: %d, rng.Intn %d", n, k, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: next Int63 is %d, rng.Intn's stream gives %d", n, g, w)
		}
	}
}

// TestFastmodMatchesRemainder compares fastmod with v % n for random v
// over the whole 32-bit range and n up to 2³¹−1, plus the extremes.
func TestFastmodMatchesRemainder(t *testing.T) {
	check := func(v, n uint32) {
		t.Helper()
		if got := fastmod(v, newIntn(int(n)).mult, n); got != v%n {
			t.Fatalf("fastmod(%d, n=%d) = %d, want %d", v, n, got, v%n)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for k := 0; k < 200000; k++ {
		check(rng.Uint32(), uint32(rng.Int31n(1<<31-1))+1)
	}
	for _, n := range []uint32{1, 2, 3, 7, 1 << 16, 65537, 1<<31 - 1} {
		for _, v := range []uint32{0, 1, n - 1, n, n + 1, 1<<31 - 1, 1 << 31, ^uint32(0)} {
			check(v, n)
		}
	}
}

// BenchmarkAliasDraw times one draw from tables of a negative-sampler
// size and of a node's neighbour-list size.
func BenchmarkAliasDraw(b *testing.B) {
	for _, n := range []int{7, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ws := make([]float64, n)
			for i := range ws {
				ws[i] = rng.ExpFloat64()
			}
			a := NewAlias(ws)
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += a.Draw(rng)
			}
			aliasSink = sink
		})
	}
}

// aliasSink keeps the benchmarked draws live.
var aliasSink int
