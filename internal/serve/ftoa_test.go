package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// appendJSONFloatStrconv is encoding/json's float64 rule written with
// strconv alone: the oracle appendJSONFloat is held to.
func appendJSONFloatStrconv(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// edgeFloats are the formatter's edge cases: every power of two
// and its neighbours, powers of ten ±1 ulp, integers around 2^53, both
// sides of 1e-6 and 1e21, the two smallest subnormals, MaxFloat64, ±0,
// NaN and ±Inf.
func edgeFloats() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 5e-324, 5e-323, math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 0x1p-1022, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-6, 1e21, 0.1, 0.3, 2.0 / 3, 123456789012345680000}
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for e := -323; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		vs = append(vs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for i := -100; i <= 100; i++ {
		vs = append(vs, float64(1<<53+i), float64(1<<54+2*i))
	}
	for _, b := range []float64{1e-6, 1e21} {
		v := b
		for i := 0; i < 10; i++ {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 20; i++ {
			vs = append(vs, v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	n := len(vs)
	for _, v := range vs[:n] {
		vs = append(vs, -v)
	}
	return vs
}

// checkFloat requires appendJSONFloat to match the strconv oracle on f,
// bytes and error alike.
func checkFloat(t *testing.T, f float64, got, want []byte) {
	t.Helper()
	g, gerr := appendJSONFloat(got[:0], f)
	w, werr := appendJSONFloatStrconv(want[:0], f)
	if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
		t.Fatalf("%v (bits %#016x): got %q (%v), want %q (%v)",
			f, math.Float64bits(f), g, gerr, w, werr)
	}
}

// TestAppendJSONFloatMatchesStrconv runs the formatter against the
// strconv rule on the edge values, on random bit patterns (all of them
// and those in the fixed-point range), and on embedding-like N(0, 0.3²)
// values.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	got, want := make([]byte, 0, 64), make([]byte, 0, 64)
	for _, f := range edgeFloats() {
		checkFloat(t, f, got, want)
	}
	n := 1 << 20
	if raceEnabled || testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()), got, want)
		// Biased exponents 1003..1092: 2^-72 up to just below 2^70.
		inRange := rng.Uint64()&(1<<52-1) | uint64(1003+rng.Intn(90))<<52 | rng.Uint64()&(1<<63)
		checkFloat(t, math.Float64frombits(inRange), got, want)
		checkFloat(t, rng.NormFloat64()*0.3, got, want)
	}
}

// FuzzAppendJSONFloat compares appendJSONFloat with json.Marshal on an
// arbitrary float64 bit pattern. The committed corpus under
// testdata/fuzz/FuzzAppendJSONFloat holds ±0, 5e-324, 5e-323, the
// smallest normal, MaxFloat64, both sides of 1e-6 and 1e21, integers
// around 2^53, NaN and ±Inf.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, fb uint64) {
		v := math.Float64frombits(fb)
		want, werr := json.Marshal(v)
		got, gerr := appendJSONFloat(nil, v)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#016x): got %q (%v), want %q (%v)", v, fb, got, gerr, want, werr)
		}
	})
}

// TestFloorLogs checks the fixed-point logarithms shortestDecimal uses
// against exact big-number comparisons over every double exponent.
func TestFloorLogs(t *testing.T) {
	pow := func(base, e int64) *big.Rat { // base^e
		r := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(base), big.NewInt(max(e, -e)), nil))
		if e < 0 {
			r.Inv(r)
		}
		return r
	}
	// floorOf reports whether 10^k ≤ x < 10^(k+1) (base 10) or 2^k ≤ x < 2^(k+1).
	floorOf := func(x *big.Rat, base int64, k int) bool {
		return pow(base, int64(k)).Cmp(x) <= 0 && x.Cmp(pow(base, int64(k+1))) < 0
	}
	for q := -1100; q <= 1100; q++ {
		p2 := pow(2, int64(q))
		if k := floorLog10Pow2(q); !floorOf(p2, 10, k) {
			t.Fatalf("floorLog10Pow2(%d) = %d", q, k)
		}
		tq := new(big.Rat).Mul(p2, big.NewRat(3, 4))
		if k := floorLog10ThreeQuartersPow2(q); !floorOf(tq, 10, k) {
			t.Fatalf("floorLog10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -340; e <= 340; e++ {
		if k := floorLog2Pow10(e); !floorOf(pow(10, int64(e)), 2, k) {
			t.Fatalf("floorLog2Pow10(%d) = %d", e, k)
		}
	}
}

// BenchmarkAppendJSONFloat times the formatter and the strconv rule on
// the 64-float vector BenchmarkWriteJSON encodes, reported per value.
func BenchmarkAppendJSONFloat(b *testing.B) {
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) / 3
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) ([]byte, error)
	}{{"schubfach", appendJSONFloat}, {"strconv", appendJSONFloatStrconv}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, x := range vec {
					buf, _ = bc.fn(buf[:0], x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vec)), "ns/value")
		})
	}
}
