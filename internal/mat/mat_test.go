package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.R != 3 || m.C != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.R, m.C, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v", got)
	}
	m.SetRow(0, []float64{1, 2, 3})
	if m.At(0, 1) != 2 {
		t.Fatalf("SetRow failed: %v", m.Row(0))
	}
	// Row is a view: mutating it mutates the matrix.
	m.Row(0)[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("Row must alias backing storage")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	n := m.Clone()
	n.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestAddSubElemMulScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := Add(nil, a, b); !got.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(nil, b, a); !got.Equal(FromSlice(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := ElemMul(nil, a, b); !got.Equal(FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Fatalf("ElemMul = %v", got)
	}
	if got := Scale(nil, 2, a); !got.Equal(FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	dst := a.Clone()
	AddScaled(dst, 10, b)
	if !dst.Equal(FromSlice(2, 2, []float64{51, 62, 73, 84}), 0) {
		t.Fatalf("AddScaled = %v", dst)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if got := MatMul(nil, a, b); !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(nil, New(2, 3), New(2, 2))
}

func TestMatMulTAndTMatMulAgreeWithTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(4, 3, 1, rng)
	b := RandN(5, 3, 1, rng)
	// a·bᵀ via explicit transpose.
	bt := Transpose(nil, b)
	want := MatMul(nil, a, bt)
	if got := MatMulT(nil, a, b); !got.Equal(want, 1e-12) {
		t.Fatalf("MatMulT disagrees with MatMul(a, bᵀ)")
	}
	// aᵀ·b via explicit transpose.
	c := RandN(4, 6, 1, rng)
	at := Transpose(nil, a)
	want2 := MatMul(nil, at, c)
	if got := TMatMul(nil, a, c); !got.Equal(want2, 1e-12) {
		t.Fatalf("TMatMul disagrees with MatMul(aᵀ, b)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(3, 7, 1, rng)
	att := Transpose(nil, Transpose(nil, a))
	if !att.Equal(a, 0) {
		t.Fatal("transpose twice must be identity")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(5, 8, 3, rng)
	s := SoftmaxRows(nil, a)
	for i := 0; i < s.R; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxRowsStableForLargeValues(t *testing.T) {
	a := FromSlice(1, 3, []float64{1000, 1001, 1002})
	s := SoftmaxRows(nil, a)
	for _, v := range s.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", s.Row(0))
		}
	}
	if s.At(0, 2) <= s.At(0, 1) || s.At(0, 1) <= s.At(0, 0) {
		t.Fatalf("softmax not monotone: %v", s.Row(0))
	}
}

func TestRelu(t *testing.T) {
	a := FromSlice(1, 4, []float64{-1, 0, 2, -3})
	got := Relu(nil, a)
	want := FromSlice(1, 4, []float64{0, 0, 2, 0})
	if !got.Equal(want, 0) {
		t.Fatalf("Relu = %v", got)
	}
}

func TestDotNormCosine(t *testing.T) {
	x := []float64{3, 4}
	y := []float64{4, 3}
	if Dot(x, y) != 24 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if got := CosineSim(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CosineSim(x,x) = %v", got)
	}
	if got := CosineSim(x, []float64{0, 0}); got != 0 {
		t.Fatalf("CosineSim with zero vector = %v", got)
	}
	if got := CosineSim([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
}

func TestSumMaxAbsFrobenius(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -2, 3, -4})
	if m.Sum() != -2 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if got := m.FrobeniusNorm(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
}

// Property: (A·B)·C == A·(B·C) for random matrices.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandN(3, 4, 1, r)
		b := RandN(4, 5, 1, r)
		c := RandN(5, 2, 1, r)
		ab := MatMul(nil, a, b)
		bc := MatMul(nil, b, c)
		left := MatMul(nil, ab, c)
		right := MatMul(nil, a, bc)
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub(a, a) is zero.
func TestAddSubProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandN(4, 4, 1, r)
		b := RandN(4, 4, 1, r)
		if !Add(nil, a, b).Equal(Add(nil, b, a), 0) {
			return false
		}
		z := Sub(nil, a, a)
		return z.MaxAbs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := XavierInit(10, 20, rng)
	bound := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
}

func TestEmbeddingInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := EmbeddingInit(10, 8, rng)
	for _, v := range m.Data {
		if v < -0.5/8 || v > 0.5/8 {
			t.Fatalf("embedding init value %v outside bounds", v)
		}
	}
}

func TestRandNDeterministic(t *testing.T) {
	a := RandN(3, 3, 1, rand.New(rand.NewSource(42)))
	b := RandN(3, 3, 1, rand.New(rand.NewSource(42)))
	if !a.Equal(b, 0) {
		t.Fatal("RandN with same seed must be identical")
	}
}

func TestStringTruncation(t *testing.T) {
	small := FromSlice(1, 2, []float64{1, 2})
	if s := small.String(); s == "" {
		t.Fatal("empty String for small matrix")
	}
	big := New(100, 100)
	if s := big.String(); len(s) > 40 {
		t.Fatalf("String for big matrix should truncate, got %q", s)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(64, 64, 1, rng)
	y := RandN(64, 64, 1, rng)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

// Property: (A·B)ᵀ equals Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandN(3, 5, 1, r)
		b := RandN(5, 4, 1, r)
		left := Transpose(nil, MatMul(nil, a, b))
		right := MatMul(nil, Transpose(nil, b), Transpose(nil, a))
		return left.Equal(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows are invariant to per-row constant shifts.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := RandN(4, 6, 2, r)
		shifted := a.Clone()
		for i := 0; i < shifted.R; i++ {
			c := r.NormFloat64() * 10
			row := shifted.Row(i)
			for j := range row {
				row[j] += c
			}
		}
		return SoftmaxRows(nil, a).Equal(SoftmaxRows(nil, shifted), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestResize(t *testing.T) {
	var m Dense
	m.Resize(2, 3).Fill(7)
	data := m.Data
	if got := m.Resize(3, 2); got != &m || got.R != 3 || got.C != 2 || &got.Data[0] != &data[0] {
		t.Fatalf("Resize within capacity did not reuse the backing array: %dx%d", got.R, got.C)
	}
	m.Resize(4, 4)
	if len(m.Data) != 16 || &m.Data[0] == &data[0] {
		t.Fatal("Resize beyond capacity did not allocate a new array")
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("a newly allocated array is not zeroed")
		}
	}
}
