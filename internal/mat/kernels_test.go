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
// product is NaN), Axpy bit-identical always. It also checks every
// assembly tier against the Go loops bit for bit.
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
	tab := New(3, 4)
	x, v2, v4 := make([]float64, 4), make([]float64, 2), make([]float64, 4)
	rows := []int{0, 2}
	for name, f := range map[string]func(){
		"Dot":                 func() { Dot(make([]float64, 5), make([]float64, 4)) },
		"Axpy":                func() { Axpy(1, make([]float64, 4), make([]float64, 5)) },
		"DotRows x":           func() { DotRows(make([]float64, 5), tab, rows, v2) },
		"DotRows dst":         func() { DotRows(x, tab, rows, make([]float64, 3)) },
		"DotRows short data":  func() { DotRows(x, &Dense{R: 3, C: 4, Data: make([]float64, 11)}, rows, v2) },
		"UpdateRows x":        func() { UpdateRows(make([]float64, 3), tab, rows, v2, v4) },
		"UpdateRows a":        func() { UpdateRows(x, tab, rows, make([]float64, 1), v4) },
		"UpdateRows acc":      func() { UpdateRows(x, tab, rows, v2, make([]float64, 5)) },
		"DotRows row 3":       func() { DotRows(x, tab, []int{0, 3}, v2) },
		"DotRows row -1":      func() { DotRows(x, tab, []int{-1, 0}, v2) },
		"UpdateRows row 3":    func() { UpdateRows(x, tab, []int{1, 3}, v2, v4) },
		"UpdateRows row -1":   func() { UpdateRows(x, tab, []int{1, -1}, v2, v4) },
		"UpdateRows row huge": func() { UpdateRows(x, tab, []int{1 << 62, 0}, v2, v4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: mismatched lengths or a bad row index did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelsAllocFree pins Dot, Axpy, DotRows and UpdateRows at zero
// allocations per call, through the exported wrappers and on every
// tier.
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
	tab := New(8, 67)
	var rows [7]int
	var vals [7]float64
	for j := range rows {
		rows[j] = j % 5
		vals[j] = 1e-9
	}
	if n := testing.AllocsPerRun(100, func() { DotRows(x, tab, rows[:], vals[:]) }); n != 0 {
		t.Fatalf("DotRows allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { UpdateRows(x, tab, rows[:], vals[:], y) }); n != 0 {
		t.Fatalf("UpdateRows allocates %v objects per call", n)
	}
	for _, im := range kernelImpls() {
		if n := testing.AllocsPerRun(100, func() {
			sink += im.dot(x, y)
			im.axpy(1e-3, x, y)
			im.dotRows(x, tab.Data, rows[:], vals[:])
			im.updateRows(x, tab.Data, rows[:], vals[:], y)
		}); n != 0 {
			t.Fatalf("%s: the kernels allocate %v objects per round", im.name, n)
		}
	}
	_ = sink
}

// FuzzKernels decodes data as consecutive little-endian (xᵢ, yᵢ)
// float64 pairs, any bit pattern included, and checks both vector
// kernels against the naive loops, and every assembly tier against the
// Go loops, as checkKernels does. It then runs the row kernels of every
// tier over a table whose rows are y, x and y again, with repeated rows
// and steps ±a and ±0, against per-row Dot and Axpy (see
// checkRowKernels). The committed corpus in testdata/fuzz/FuzzKernels
// covers every tail length, lengths past one and two ZMM blocks, NaN,
// ±Inf, subnormals and cancellation.
func FuzzKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, a float64) {
		n := len(data) / 16
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkKernels(t, a, x, y)

		tab := make([]float64, 0, 3*n)
		tab = append(append(append(tab, y...), x...), y...)
		negZero := math.Copysign(0, -1)
		checkRowKernels(t, x, tab, 3,
			[]int{0, 1, 2, 1, 1, 0, 2},
			[]float64{a, -a, 0, negZero, a, a, -a},
			append([]float64(nil), y...))
	})
}

// checkRowKernels runs every tier of DotRows and UpdateRows, and the
// exported wrappers, on copies of one input and requires the
// bits of per-row Dot and Axpy calls: dst[j] = Dot(x, row_j), and for
// j in order Axpy(a[j], row_j, acc), Axpy(-a[j], x, row_j). tab is the
// backing array of a tabRows-row table; x must not overlap it.
func checkRowKernels(t *testing.T, x, tab []float64, tabRows int, rows []int, a, acc []float64) {
	t.Helper()
	n := len(x)
	row := func(tb []float64, r int) []float64 { return tb[r*n : (r+1)*n] }
	wantDots := make([]float64, len(rows))
	for j, r := range rows {
		wantDots[j] = Dot(x, row(tab, r))
	}
	wantTab := append([]float64(nil), tab...)
	wantAcc := append([]float64(nil), acc...)
	for j, r := range rows {
		Axpy(a[j], row(wantTab, r), wantAcc)
		Axpy(-a[j], x, row(wantTab, r))
	}

	impls := kernelImpls()
	if len(rows) == 0 {
		// The assembly requires a row; the exported kernels return early.
		impls = impls[:0]
	}
	impls = append(impls, kernelImpl{
		name: "exported",
		dotRows: func(x, tb []float64, rows []int, dst []float64) {
			DotRows(x, &Dense{R: tabRows, C: n, Data: tb}, rows, dst)
		},
		updateRows: func(x, tb []float64, rows []int, a, acc []float64) {
			UpdateRows(x, &Dense{R: tabRows, C: n, Data: tb}, rows, a, acc)
		},
	})
	for _, im := range impls {
		dots := make([]float64, len(rows))
		im.dotRows(x, tab, rows, dots)
		for j := range dots {
			if !sameBits(dots[j], wantDots[j]) {
				t.Fatalf("%s: len %d rows %v: dot %d = %v (%#x), Dot %v (%#x)", im.name, n, rows, j,
					dots[j], math.Float64bits(dots[j]), wantDots[j], math.Float64bits(wantDots[j]))
			}
		}
		gotTab := append([]float64(nil), tab...)
		gotAcc := append([]float64(nil), acc...)
		im.updateRows(x, gotTab, rows, a, gotAcc)
		for i := range wantTab {
			if !sameBits(gotTab[i], wantTab[i]) {
				t.Fatalf("%s: len %d rows %v a %v: table element %d (row %d col %d) = %v, Axpy %v",
					im.name, n, rows, a, i, i/n, i%n, gotTab[i], wantTab[i])
			}
		}
		for i := range wantAcc {
			if !sameBits(gotAcc[i], wantAcc[i]) {
				t.Fatalf("%s: len %d rows %v a %v: acc element %d = %v, Axpy %v", im.name, n, rows, a, i, gotAcc[i], wantAcc[i])
			}
		}
	}
}

// TestRowKernelsMatchPerRow pins DotRows and UpdateRows, on every tier
// the CPU runs, to per-row Dot and Axpy bit for bit: every row length
// in testLengths, tables at element offsets 0–3 into a larger array so
// loads are unaligned, 1 to 14 rows (so the six-row sweeps run full,
// partial and several times) with repeated rows, steps of ±0, and
// planted NaN, ±Inf and subnormal values.
func TestRowKernelsMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	negZero := math.Copysign(0, -1)
	const tabRows = 5
	for _, n := range testLengths() {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 6; trial++ {
				bx, bt := make([]float64, n+off), make([]float64, tabRows*n+off)
				for i := range bx {
					bx[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
				}
				for i := range bt {
					bt[i] = rng.NormFloat64()
				}
				x, tab := bx[off:], bt[off:]
				if trial >= 4 && n > 0 {
					for k := 0; k <= trial-3; k++ {
						x[rng.Intn(n)] = specialValues[rng.Intn(len(specialValues))]
						tab[rng.Intn(len(tab))] = specialValues[rng.Intn(len(specialValues))]
					}
				}
				rows := make([]int, 1+rng.Intn(14))
				a := make([]float64, len(rows))
				for j := range rows {
					rows[j] = rng.Intn(tabRows)
					switch rng.Intn(6) {
					case 0:
						a[j] = 0
					case 1:
						a[j] = negZero
					default:
						a[j] = rng.NormFloat64()
					}
				}
				if trial == 5 {
					a[rng.Intn(len(a))] = specialValues[rng.Intn(len(specialValues))]
				}
				acc := make([]float64, n)
				for i := range acc {
					acc[i] = rng.NormFloat64()
				}
				checkRowKernels(t, x, tab, tabRows, rows, a, acc)
			}
		}
	}
	checkRowKernels(t, nil, nil, 0, nil, nil, nil)
	checkRowKernels(t, []float64{1}, []float64{2, 3}, 2, nil, nil, []float64{4})
}

// TestRowKernelsSignedZeroAndOrder runs the row kernels on inputs that
// tell apart the two details an implementation could get wrong while
// staying close. The step of a row update is −a, a sign-bit flip: with
// a = +0, x = 1 and −0 rows, each update adds (−0)·1 = −0 and the rows
// stay −0, where 0−a would add +0·1 and give +0. And each dot keeps
// Dot's (s0+s1)+(s2+s3) reduction: the second row below gives 0 in
// that order and 1 or 2 in the others (see TestDotSummationOrder).
func TestRowKernelsSignedZeroAndOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 4, 5, 9, 33, 64, 71, 100} {
		x := make([]float64, n)
		tab := make([]float64, 2*n)
		acc := make([]float64, n)
		for i := range x {
			x[i] = 1
			tab[i], tab[n+i] = negZero, negZero
			acc[i] = negZero
		}
		for _, a := range [][]float64{{0, 0}, {0, 0, 0}, {negZero, negZero}, {0, negZero, 0}} {
			checkRowKernels(t, x, tab, 2, []int{0, 1, 0}[:len(a)], a, acc)
		}
	}

	x := []float64{1, 1, 1, 1, 1}
	tab := []float64{
		1, 1, 1, 1, 1,
		1e16, 1, -1e16, 1, 1,
	}
	rows := []int{0, 1, 1, 0, 1, 1, 1}
	checkRowKernels(t, x, tab, 2, rows, make([]float64, len(rows)), make([]float64, 5))
}

// checkAsmMatchesGeneric requires every assembly tier's Dot and Axpy
// to give the Go loops' bits on one input, NaN payloads aside. It
// checks nothing where no assembly runs.
func checkAsmMatchesGeneric(t *testing.T, a float64, x, y []float64) {
	t.Helper()
	want := dotGeneric(x, y)
	wantY := append([]float64(nil), y...)
	axpyGeneric(a, x, wantY)
	for _, im := range kernelImpls()[1:] {
		if got := im.dot(x, y); !sameBits(got, want) {
			t.Fatalf("%s: len %d: dot = %v (%#x), dotGeneric %v (%#x)",
				im.name, len(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		gotY := append([]float64(nil), y...)
		im.axpy(a, x, gotY)
		for i := range wantY {
			if !sameBits(gotY[i], wantY[i]) {
				t.Fatalf("%s: len %d: axpy element %d = %v, axpyGeneric %v", im.name, len(x), i, gotY[i], wantY[i])
			}
		}
	}
}

// specialValues are the IEEE cases a lane-wise kernel could get wrong.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, math.MaxFloat64, -math.MaxFloat64, 1,
}

// testLengths are the vector lengths the kernel tests cover: every
// length from 0 to 70, so each tail of the 4-, 16- and 32-element
// blocks is hit, and 96 and 100, three whole ZMM blocks of 32 with and
// without a tail.
func testLengths() []int {
	ns := make([]int, 0, 73)
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 96, 100)
}

// TestAsmKernelsMatchGeneric pins every assembly tier's Dot and Axpy to
// the Go loops bit for bit on every length in testLengths, at element
// offsets 0–3 into a larger array so the loads are unaligned, for
// aliased operands, and with NaN, ±Inf, −0 and subnormals mixed in.
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
	for _, n := range testLengths() {
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
				wantY := append([]float64(nil), x...)
				axpyGeneric(a, wantY, wantY)
				for _, im := range kernelImpls()[1:] {
					gotY := append([]float64(nil), x...)
					im.axpy(a, gotY, gotY)
					for i := range wantY {
						if !sameBits(gotY[i], wantY[i]) {
							t.Fatalf("%s: len %d: aliased axpy element %d = %v, axpyGeneric %v", im.name, n, i, gotY[i], wantY[i])
						}
					}
				}
			}
		}
	}
}

// kernelImpl is one tier of the vector and row kernels. The row
// kernels take the matrix's backing array with row stride len(x), as
// DotRows and UpdateRows pass it.
type kernelImpl struct {
	name       string
	dot        func(x, y []float64) float64
	axpy       func(a float64, x, y []float64)
	dotRows    func(x, t []float64, rows []int, dst []float64)
	updateRows func(x, t []float64, rows []int, a, acc []float64)
}

// kernelImpls selects every tier the CPU runs, the Go loops first: the
// exported kernels run only the widest one, so this is how the AVX2
// tier stays tested on AVX-512 hosts. The AVX-512 tier widens Axpy and
// UpdateRows and keeps the AVX2 Dot and DotRows.
func kernelImpls() []kernelImpl {
	impls := []kernelImpl{{"generic", dotGeneric, axpyGeneric, dotRowsGeneric, updateRowsGeneric}}
	if useAVX2 {
		impls = append(impls, kernelImpl{"avx2", dotAVX2, axpyAVX2, dotRowsAVX2, updateRowsAVX2})
	}
	if useAVX512 {
		impls = append(impls, kernelImpl{"avx512", dotAVX2, axpyAVX512, dotRowsAVX2, updateRowsAVX512})
	}
	return impls
}

// TestKernelsDoNotFuse pins the separate rounding of product and sum in
// both kernels on every tier. With u = 1+2⁻⁵², u·u rounds
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
		for _, n := range []int{1, 4, 16, 32, 100} {
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

// BenchmarkKernels times each kernel on every tier the CPU runs, at
// the repository's embedding widths. dotrows and updaterows work on six
// rows, an SGNS pair with five negatives. The AVX-512 tier's dot and
// dotrows are the AVX2 kernels, so they are not timed twice.
func BenchmarkKernels(b *testing.B) {
	for _, kernel := range []string{"dot", "axpy", "dotrows", "updaterows"} {
		for _, im := range kernelImpls() {
			if im.name == "avx512" && (kernel == "dot" || kernel == "dotrows") {
				continue
			}
			for _, d := range []int{64, 128} {
				b.Run(fmt.Sprintf("%s/%s/d=%d", kernel, im.name, d), func(b *testing.B) {
					x, y := benchVectors(d)
					tab := make([]float64, 8*d)
					for r := 0; r < 8; r++ {
						copy(tab[r*d:], y)
					}
					rows := []int{3, 0, 7, 1, 5, 2}
					vals := make([]float64, len(rows))
					for j := range vals {
						vals[j] = 1e-9
					}
					b.ResetTimer()
					switch kernel {
					case "dot":
						for i := 0; i < b.N; i++ {
							benchSink = im.dot(x, y)
						}
					case "axpy":
						for i := 0; i < b.N; i++ {
							im.axpy(1e-9, x, y)
						}
					case "dotrows":
						for i := 0; i < b.N; i++ {
							im.dotRows(x, tab, rows, vals)
						}
						benchSink = vals[0]
					case "updaterows":
						for i := 0; i < b.N; i++ {
							im.updateRows(x, tab, rows, vals, y)
						}
					}
				})
			}
		}
	}
}
