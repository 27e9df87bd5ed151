package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// naiveDot is the left-to-right single-accumulator sum the unrolled Dot
// replaces; it also returns Σ|xᵢyᵢ|, the scale of Dot's rounding error.
func naiveDot(x, y []float64) (dot, abs float64) {
	for i := range x {
		p := x[i] * y[i]
		dot += p
		abs += math.Abs(p)
	}
	return dot, abs
}

// naiveAxpy is the plain y += a·x loop; Axpy must match it bit for bit.
func naiveAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// dotTol is Dot's allowed distance from naiveDot, relative to Σ|xᵢyᵢ|.
// Both orders are within n·ε·Σ|xᵢyᵢ| of the exact sum, far inside it
// for the lengths the repository uses.
const dotTol = 1e-12

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernels compares Dot and Axpy against the naive loops on one
// input: Dot within dotTol·Σ|xᵢyᵢ| when that sum is finite (NaN when a
// product is NaN), Axpy bit-identical always.
func checkKernels(t *testing.T, a float64, x, y []float64) {
	t.Helper()
	got := Dot(x, y)
	want, abs := naiveDot(x, y)
	switch {
	case !math.IsInf(abs, 0) && !math.IsNaN(abs):
		if d := math.Abs(got - want); !(d <= dotTol*abs) {
			t.Fatalf("len %d: Dot = %v, naive %v (diff %g > %g·%g)", len(x), got, want, d, dotTol, abs)
		}
	case math.IsNaN(abs) && !math.IsNaN(got):
		t.Fatalf("len %d: Dot = %v with a NaN product, want NaN", len(x), got)
	}

	gotY := append([]float64(nil), y...)
	wantY := append([]float64(nil), y...)
	Axpy(a, x, gotY)
	naiveAxpy(a, x, wantY)
	for i := range wantY {
		if !sameBits(gotY[i], wantY[i]) {
			t.Fatalf("len %d: Axpy element %d = %v, naive %v", len(x), i, gotY[i], wantY[i])
		}
	}
}

// TestKernelsMatchNaive covers every length from 0 to 130, so every
// tail length of the 4-way unroll is hit many times.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
				y[i] = rng.NormFloat64()
			}
			checkKernels(t, rng.NormFloat64(), x, y)
		}
	}
}

// TestDotSummationOrder pins the documented order on an input whose
// rounding tells the orders apart: four accumulators over i mod 4,
// the tail into s0, then (s0+s1)+(s2+s3). Here that gives 0, a
// left-to-right sum 2, and ((s0+s1)+s2)+s3 gives 1.
func TestDotSummationOrder(t *testing.T) {
	x := []float64{1e16, 1, -1e16, 1, 1}
	y := []float64{1, 1, 1, 1, 1}
	s0 := x[0]
	s0 += x[4]
	s1, s2, s3 := x[1], x[2], x[3]
	want := (s0 + s1) + (s2 + s3)
	if naive, _ := naiveDot(x, y); naive == want || ((s0+s1)+s2)+s3 == want {
		t.Fatalf("input does not separate the orders: all give %v", want)
	}
	if got := Dot(x, y); got != want {
		t.Fatalf("Dot = %v, want %v from the documented order", got, want)
	}
}

func TestKernelsPanicOnLengthMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":  func() { Dot(make([]float64, 5), make([]float64, 4)) },
		"Axpy": func() { Axpy(1, make([]float64, 4), make([]float64, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched lengths did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelsAllocFree is the dynamic half of the //lint:alloc-free
// pins on Dot and Axpy.
func TestKernelsAllocFree(t *testing.T) {
	x, y := make([]float64, 67), make([]float64, 67)
	for i := range x {
		x[i], y[i] = float64(i), 1/float64(i+1)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += Dot(x, y) }); n != 0 {
		t.Fatalf("Dot allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { Axpy(1e-3, x, y) }); n != 0 {
		t.Fatalf("Axpy allocates %v objects per call", n)
	}
	_ = sink
}

// FuzzKernels decodes data as consecutive little-endian (xᵢ, yᵢ)
// float64 pairs, any bit pattern included, and checks both kernels
// against the naive loops as checkKernels does. The committed corpus
// in testdata/fuzz/FuzzKernels covers every tail length, NaN, ±Inf,
// subnormals and cancellation.
func FuzzKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, a float64) {
		n := len(data) / 16
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkKernels(t, a, x, y)
	})
}

func benchVectors() (x, y []float64) {
	rng := rand.New(rand.NewSource(1))
	x, y = make([]float64, 64), make([]float64, 64)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	return x, y
}

// benchSink keeps BenchmarkDot64's result live.
var benchSink float64

func BenchmarkDot64(b *testing.B) {
	x, y := benchVectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Dot(x, y)
	}
}

func BenchmarkAxpy64(b *testing.B) {
	x, y := benchVectors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1e-9, x, y)
	}
}
