package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/mat"
)

const gradTol = 1e-5

// checkOp grad-checks a scalar loss built from nParams random matrices,
// once with a fresh tape per evaluation and once with one tape Reset
// between evaluations.
func checkOp(t *testing.T, name string, shapes [][2]int, build func(tp *Tape, params []*Tensor) *Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	params := make([]*mat.Dense, len(shapes))
	for i, s := range shapes {
		params[i] = mat.RandN(s[0], s[1], 0.5, rng)
	}
	gradCheckBothTapes(t, name, params, func(tp *Tape, pts []*Tensor) *Tensor { return build(tp, pts) })
}

// gradCheckBothTapes runs GradCheck on build over params with a fresh
// tape per loss evaluation, then again on a single reused tape.
func gradCheckBothTapes(t *testing.T, name string, params []*mat.Dense, build func(tp *Tape, pts []*Tensor) *Tensor) {
	t.Helper()
	reused := NewTape()
	for _, reuse := range []bool{false, true} {
		lossFn := func() (*Tensor, []*Tensor) {
			tp := NewTape()
			if reuse {
				tp = reused
				tp.Reset()
			}
			pts := make([]*Tensor, len(params))
			for i, p := range params {
				pts[i] = tp.Param(p)
			}
			loss := build(tp, pts)
			tp.Backward(loss)
			return loss, pts
		}
		if worst := GradCheck(params, lossFn, 1e-6); worst > gradTol {
			t.Fatalf("%s (reused tape %v): worst relative gradient error %g > %g", name, reuse, worst, gradTol)
		}
	}
}

func TestGradMatMul(t *testing.T) {
	checkOp(t, "MatMul", [][2]int{{3, 4}, {4, 2}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.MatMul(p[0], p[1]))
	})
}

func TestGradMatMulT(t *testing.T) {
	checkOp(t, "MatMulT", [][2]int{{3, 4}, {5, 4}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.MatMulT(p[0], p[1]))
	})
}

func TestGradAddSub(t *testing.T) {
	checkOp(t, "Add/Sub", [][2]int{{3, 3}, {3, 3}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.Sub(tp.Add(p[0], p[1]), p[1])))
	})
}

func TestGradElemMul(t *testing.T) {
	checkOp(t, "ElemMul", [][2]int{{2, 5}, {2, 5}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.ElemMul(p[0], p[1]))
	})
}

func TestGradScale(t *testing.T) {
	checkOp(t, "Scale", [][2]int{{4, 4}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.Scale(2.5, p[0])))
	})
}

func TestGradAddColBroadcast(t *testing.T) {
	checkOp(t, "AddColBroadcast", [][2]int{{3, 5}, {3, 1}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.AddColBroadcast(p[0], p[1])))
	})
}

func TestGradAddRowBroadcast(t *testing.T) {
	checkOp(t, "AddRowBroadcast", [][2]int{{3, 5}, {1, 5}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.AddRowBroadcast(p[0], p[1])))
	})
}

func TestGradRelu(t *testing.T) {
	checkOp(t, "Relu", [][2]int{{4, 6}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Relu(p[0]))
	})
}

func TestGradSigmoid(t *testing.T) {
	checkOp(t, "Sigmoid", [][2]int{{3, 3}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Sigmoid(p[0]))
	})
}

func TestGradTanh(t *testing.T) {
	checkOp(t, "Tanh", [][2]int{{3, 3}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Tanh(p[0]))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	checkOp(t, "SoftmaxRows", [][2]int{{4, 5}, {4, 5}}, func(tp *Tape, p []*Tensor) *Tensor {
		// Weighted sum so the gradient is non-uniform across the row.
		return tp.MeanAll(tp.ElemMul(tp.SoftmaxRows(p[0]), p[1]))
	})
}

func TestGradMSE(t *testing.T) {
	checkOp(t, "MSE", [][2]int{{3, 4}, {3, 4}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MSE(p[0], p[1])
	})
}

// TestGradEncoderStack checks the exact composition the paper's translator
// uses: F(S(F(S(A)))) with S(A)=softmax(AAᵀ/√d)·A and F(A)=relu(W·A+b),
// reduced by MSE against a constant target (Eq. 8–11).
func TestGradEncoderStack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const pathLen, d = 4, 3
	target := mat.RandN(pathLen, d, 0.5, rng)
	shapes := [][2]int{
		{pathLen, d},                     // A: input embeddings
		{pathLen, pathLen}, {pathLen, 1}, // W1, b1
		{pathLen, pathLen}, {pathLen, 1}, // W2, b2
	}
	checkOpWithTarget(t, "EncoderStack", shapes, target, func(tp *Tape, p []*Tensor, tgt *Tensor) *Tensor {
		x := p[0]
		for e := 0; e < 2; e++ {
			w, b := p[1+2*e], p[2+2*e]
			// Self-attention: softmax(X·Xᵀ/√d)·X.
			att := tp.SoftmaxRows(tp.Scale(1/math.Sqrt(d), tp.MatMulT(x, x)))
			x = tp.MatMul(att, x)
			// Feed-forward: relu(W·X + b) with column-broadcast bias.
			x = tp.Relu(tp.AddColBroadcast(tp.MatMul(w, x), b))
		}
		return tp.MSE(x, tgt)
	})
}

func checkOpWithTarget(t *testing.T, name string, shapes [][2]int, target *mat.Dense, build func(tp *Tape, params []*Tensor, tgt *Tensor) *Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	params := make([]*mat.Dense, len(shapes))
	for i, s := range shapes {
		params[i] = mat.RandN(s[0], s[1], 0.5, rng)
	}
	gradCheckBothTapes(t, name, params, func(tp *Tape, pts []*Tensor) *Tensor {
		return build(tp, pts, tp.Constant(target))
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	a := tp.Param(mat.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tp.Backward(a)
}

func TestConstantGetsNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Constant(mat.FromSlice(1, 1, []float64{2}))
	p := tp.Param(mat.FromSlice(1, 1, []float64{3}))
	loss := tp.MeanAll(tp.ElemMul(c, p))
	tp.Backward(loss)
	if c.Grad != nil && c.Grad.MaxAbs() != 0 {
		t.Fatal("constant accumulated gradient")
	}
	if got := p.Grad.At(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("param grad = %v, want 2", got)
	}
}

func TestGradAccumulationAcrossFanOut(t *testing.T) {
	// loss = mean(p+p) ⇒ dL/dp = 2/N elementwise.
	tp := NewTape()
	p := tp.Param(mat.FromSlice(2, 1, []float64{1, 2}))
	loss := tp.MeanAll(tp.Add(p, p))
	tp.Backward(loss)
	for i := range p.Grad.Data {
		if math.Abs(p.Grad.Data[i]-1) > 1e-12 { // 2/N with N=2
			t.Fatalf("fan-out grad = %v, want 1", p.Grad.Data[i])
		}
	}
}

func TestTapeResetReuse(t *testing.T) {
	tp := NewTape()
	p := mat.FromSlice(1, 1, []float64{1})
	for i := 0; i < 3; i++ {
		tp.Reset()
		pt := tp.Param(p)
		loss := tp.MeanAll(tp.Square(pt))
		tp.Backward(loss)
		if got := pt.Grad.At(0, 0); math.Abs(got-2) > 1e-12 {
			t.Fatalf("iteration %d grad = %v, want 2", i, got)
		}
	}
	if tp.Len() == 0 {
		t.Fatal("tape should contain nodes after use")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)² from x=0.
	x := mat.FromSlice(1, 1, []float64{0})
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		tp := NewTape()
		px := tp.Param(x)
		c := tp.Constant(mat.FromSlice(1, 1, []float64{3}))
		loss := tp.MSE(px, c)
		tp.Backward(loss)
		opt.Step(x, px.Grad)
	}
	if got := x.At(0, 0); math.Abs(got-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", got)
	}
}

func TestSGDStep(t *testing.T) {
	p := mat.FromSlice(1, 2, []float64{1, 1})
	g := mat.FromSlice(1, 2, []float64{2, -4})
	SGD(p, g, 0.5)
	want := mat.FromSlice(1, 2, []float64{0, 3})
	if !p.Equal(want, 1e-12) {
		t.Fatalf("SGD result %v want %v", p, want)
	}
}

func TestSigmoidNumericallyStable(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(mat.FromSlice(1, 2, []float64{-1000, 1000}))
	s := tp.Sigmoid(a)
	if s.Value.At(0, 0) != 0 && math.IsNaN(s.Value.At(0, 0)) {
		t.Fatal("sigmoid(-1000) unstable")
	}
	if got := s.Value.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sigmoid(1000) = %v", got)
	}
}

// encoderStep records one encoder pass (self-attention, feed-forward
// with column bias, MSE against target) on tp and runs Backward.
func encoderStep(tp *Tape, a, w, bias, target *mat.Dense) {
	d := float64(a.C)
	x := tp.Param(a)
	att := tp.SoftmaxRows(tp.Scale(1/math.Sqrt(d), tp.MatMulT(x, x)))
	h := tp.MatMul(att, x)
	out := tp.Relu(tp.AddColBroadcast(tp.MatMul(tp.Param(w), h), tp.Param(bias)))
	loss := tp.MSE(out, tp.Constant(target))
	tp.Backward(loss)
}

// BenchmarkEncoderForwardBackward measures one encoder forward and
// backward pass at a 16×32 path on a tape reused across iterations,
// the steady state of cross-view training.
func BenchmarkEncoderForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const pathLen, d = 16, 32
	a := mat.RandN(pathLen, d, 0.1, rng)
	w := mat.XavierInit(pathLen, pathLen, rng)
	bias := mat.New(pathLen, 1)
	target := mat.RandN(pathLen, d, 0.1, rng)
	tp := NewTape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		encoderStep(tp, a, w, bias, target)
	}
}
