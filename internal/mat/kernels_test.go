package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveDot is the left-to-right single-accumulator sum the unrolled Dot
// replaces; it also returns Σ|xᵢyᵢ|, the scale of Dot's rounding error.
func naiveDot(x, y []float64) (dot, abs float64) {
	for i := range x {
		p := float64(x[i] * y[i])
		dot += p
		abs += math.Abs(p)
	}
	return dot, abs
}

// naiveAxpy is the plain y += a·x loop; Axpy must match it bit for bit.
// The conversion keeps the compiler from fusing the multiply and add.
func naiveAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += float64(a * x[i])
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
// product is NaN), Axpy bit-identical always. It also checks the
// assembly kernels against the Go loops bit for bit.
func checkKernels(t *testing.T, a float64, x, y []float64) {
	t.Helper()
	checkAsmMatchesGeneric(t, a, x, y)
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

// TestKernelsAllocFree pins Dot and Axpy at zero allocations per call.
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

// checkAsmMatchesGeneric requires the AVX2 kernels to give the Go
// loops' bits on one input, NaN payloads aside. It checks nothing
// where the assembly does not run.
func checkAsmMatchesGeneric(t *testing.T, a float64, x, y []float64) {
	t.Helper()
	if !useAVX2 {
		return
	}
	if got, want := dotAVX2(x, y), dotGeneric(x, y); !sameBits(got, want) {
		t.Fatalf("len %d: dotAVX2 = %v (%#x), dotGeneric %v (%#x)",
			len(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	gotY := append([]float64(nil), y...)
	wantY := append([]float64(nil), y...)
	axpyAVX2(a, x, gotY)
	axpyGeneric(a, x, wantY)
	for i := range wantY {
		if !sameBits(gotY[i], wantY[i]) {
			t.Fatalf("len %d: axpyAVX2 element %d = %v, axpyGeneric %v", len(x), i, gotY[i], wantY[i])
		}
	}
}

// specialValues are the IEEE cases a lane-wise kernel could get wrong.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, math.MaxFloat64, -math.MaxFloat64, 1,
}

// TestAsmKernelsMatchGeneric pins the AVX2 kernels to the Go loops bit
// for bit on every length from 0 to 67, at element offsets 0–3 into a
// larger array so the loads are unaligned, for aliased operands, and
// with NaN, ±Inf, −0 and subnormals mixed in.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("the assembly kernels need amd64 with AVX2")
	}
	negZero := math.Copysign(0, -1)
	for _, x := range [][]float64{
		{negZero, negZero, negZero, negZero, negZero}, // −0 sums in every lane
		{math.Inf(1), math.Inf(-1), 1, 1, math.Inf(1)},
		{1, math.NaN(), 1, 1, 1},
		{math.SmallestNonzeroFloat64, 0x1p-1070, 0x1p-1074, 3, -0x1p-1073},
	} {
		checkAsmMatchesGeneric(t, negZero, x, []float64{1, 1, 1, 1, 1})
		checkAsmMatchesGeneric(t, math.Inf(1), x, x)
	}

	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 8; trial++ {
				bx, by := make([]float64, n+off), make([]float64, n+off)
				for i := range bx {
					bx[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
					by[i] = rng.NormFloat64()
				}
				x, y := bx[off:], by[off:]
				if trial >= 4 && n > 0 {
					// Half the trials plant special values.
					for k := 0; k <= trial-4; k++ {
						x[rng.Intn(n)] = specialValues[rng.Intn(len(specialValues))]
						y[rng.Intn(n)] = specialValues[rng.Intn(len(specialValues))]
					}
				}
				a := rng.NormFloat64()
				if trial == 7 {
					a = specialValues[rng.Intn(len(specialValues))]
				}
				checkAsmMatchesGeneric(t, a, x, y)
				checkAsmMatchesGeneric(t, a, x, x)

				// Axpy into its own input: y += a·y.
				gotY := append([]float64(nil), x...)
				wantY := append([]float64(nil), x...)
				axpyAVX2(a, gotY, gotY)
				axpyGeneric(a, wantY, wantY)
				for i := range wantY {
					if !sameBits(gotY[i], wantY[i]) {
						t.Fatalf("len %d: aliased axpyAVX2 element %d = %v, axpyGeneric %v", n, i, gotY[i], wantY[i])
					}
				}
			}
		}
	}
}

// kernelImpl is one implementation of the two kernels.
type kernelImpl struct {
	name string
	dot  func(x, y []float64) float64
	axpy func(a float64, x, y []float64)
}

// kernelImpls lists the Go loops and, where they run, the AVX2 kernels.
func kernelImpls() []kernelImpl {
	impls := []kernelImpl{{"generic", dotGeneric, axpyGeneric}}
	if useAVX2 {
		impls = append(impls, kernelImpl{"asm", dotAVX2, axpyAVX2})
	}
	return impls
}

// TestKernelsDoNotFuse pins the separate rounding of product and sum in
// both kernels and both implementations. With u = 1+2⁻⁵², u·u rounds
// to 1+2⁻⁵¹ and the sum with −(1+2⁻⁵¹) is 0; a fused multiply-add keeps
// the product's 2⁻¹⁰⁴ term and gives ±2⁻¹⁰⁴ instead.
func TestKernelsDoNotFuse(t *testing.T) {
	u := 1 + 0x1p-52
	for _, im := range kernelImpls() {
		// u·u then −u·u go into s0: through the tail (n=2, indices 0
		// and 1) and through a block lane (n=8, indices 0 and 4).
		for _, c := range []struct{ n, second int }{{2, 1}, {8, 4}} {
			x, y := make([]float64, c.n), make([]float64, c.n)
			x[0], y[0] = u, u
			x[c.second], y[c.second] = -u, u
			if got := im.dot(x, y); got != 0 || math.Signbit(got) {
				t.Errorf("%s: dot over %d elements = %g, want +0", im.name, c.n, got)
			}
		}
		for _, n := range []int{1, 4, 16} {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = u, -(1 + 0x1p-51)
			}
			im.axpy(u, x, y)
			for i, v := range y {
				if v != 0 {
					t.Fatalf("%s: axpy over %d elements: element %d = %g, want 0", im.name, n, i, v)
				}
			}
		}
	}
}

func benchVectors(d int) (x, y []float64) {
	rng := rand.New(rand.NewSource(1))
	x, y = make([]float64, d), make([]float64, d)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	return x, y
}

// benchSink keeps the benchmarked Dot results live.
var benchSink float64

// BenchmarkKernels times each kernel's Go loop and, where it runs, its
// AVX2 version at the repository's embedding widths.
func BenchmarkKernels(b *testing.B) {
	for _, kernel := range []string{"dot", "axpy"} {
		for _, im := range kernelImpls() {
			for _, d := range []int{64, 128} {
				b.Run(fmt.Sprintf("%s/%s/d=%d", kernel, im.name, d), func(b *testing.B) {
					x, y := benchVectors(d)
					b.ResetTimer()
					if kernel == "dot" {
						for i := 0; i < b.N; i++ {
							benchSink = im.dot(x, y)
						}
						return
					}
					for i := 0; i < b.N; i++ {
						im.axpy(1e-9, x, y)
					}
				})
			}
		}
	}
}
