package transn

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/autodiff"
	"transn/internal/mat"
)

func TestTranslatorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTranslator(3, 8, false, 0.01, rng)
	if len(tr.Ws) != 3 || len(tr.Bs) != 3 {
		t.Fatalf("encoder count %d/%d want 3", len(tr.Ws), len(tr.Bs))
	}
	if tr.PathLen() != 8 {
		t.Fatalf("PathLen = %d", tr.PathLen())
	}
	x := mat.RandN(8, 16, 0.1, rng)
	out := tr.Translate(x)
	if out.R != 8 || out.C != 16 {
		t.Fatalf("Translate output %dx%d want 8x16", out.R, out.C)
	}
}

func TestSimpleTranslatorSingleLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTranslator(6, 4, true, 0.01, rng)
	if len(tr.Ws) != 1 {
		t.Fatalf("simple translator has %d layers, want 1", len(tr.Ws))
	}
	if !tr.Simple {
		t.Fatal("Simple flag not set")
	}
}

// layerNorm returns x with each row at zero mean and unit variance,
// through the tape's LayerNormRows: the normalization training applies
// to translation targets.
func layerNorm(x *mat.Dense) *mat.Dense {
	tp := autodiff.NewTape()
	return tp.LayerNormRows(tp.Constant(x)).Value
}

func TestTranslatorTrainsTowardTarget(t *testing.T) {
	// A translator should learn toward a fixed target matrix for a fixed
	// input: loss must at least halve over 200 Adam steps. The output is
	// layer-normalized, so the reachable targets are row-normalized. (W
	// being shared across all embedding columns bounds how exact the fit
	// can get.)
	rng := rand.New(rand.NewSource(3))
	tr := NewTranslator(2, 6, false, 0.02, rng)
	x := mat.RandN(6, 8, 0.3, rng)
	target := layerNorm(mat.RandN(6, 8, 0.3, rng))
	lossAt := func() float64 {
		tp := autodiff.NewTape()
		out := tr.Apply(tp, tp.Constant(x))
		loss := tp.MSE(out, tp.Constant(target))
		tp.Backward(loss)
		tr.Step()
		return loss.Value.At(0, 0)
	}
	first := lossAt()
	var last float64
	for i := 0; i < 200; i++ {
		last = lossAt()
	}
	if last > first/2 {
		t.Fatalf("translator did not learn: first %.6f last %.6f", first, last)
	}
}

func TestTranslatorDualApplicationGradients(t *testing.T) {
	// Applying the same translator twice in one graph (reconstruction
	// pattern) must accumulate both applications' gradients. We verify by
	// checking Step changes the parameters and subsequent records clear.
	rng := rand.New(rand.NewSource(4))
	fwd := NewTranslator(1, 4, false, 0.05, rng)
	bwd := NewTranslator(1, 4, false, 0.05, rng)
	x := mat.RandN(4, 5, 0.3, rng)
	before := fwd.Ws[0].Clone()

	tp := autodiff.NewTape()
	tx := tp.Constant(x)
	mid := fwd.Apply(tp, tx)
	rec := bwd.Apply(tp, mid)
	loss := tp.MSE(rec, tx)
	tp.Backward(loss)
	fwd.Step()
	bwd.Step()

	if fwd.Ws[0].Equal(before, 0) {
		t.Fatal("forward translator parameters unchanged after Step")
	}
	if len(fwd.lastW) != 0 || len(bwd.lastW) != 0 {
		t.Fatal("Step must clear pending records")
	}
}

func TestTranslatorReconstructionIdentityTrainable(t *testing.T) {
	// Dual training: fwd∘bwd should approach the (normalized) identity
	// on a fixed input.
	rng := rand.New(rand.NewSource(5))
	fwd := NewTranslator(1, 5, false, 0.02, rng)
	bwd := NewTranslator(1, 5, false, 0.02, rng)
	x := mat.RandN(5, 6, 0.3, rng)
	xn := layerNorm(x)
	var first, last float64
	for i := 0; i < 300; i++ {
		tp := autodiff.NewTape()
		tx := tp.Constant(x)
		rec := bwd.Apply(tp, fwd.Apply(tp, tx))
		loss := tp.MSE(rec, tp.Constant(xn))
		tp.Backward(loss)
		fwd.Step()
		bwd.Step()
		if i == 0 {
			first = loss.Value.At(0, 0)
		}
		last = loss.Value.At(0, 0)
	}
	if last > first/5 {
		t.Fatalf("reconstruction loss did not shrink: %.6f → %.6f", first, last)
	}
}

func TestDiscardGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := NewTranslator(2, 4, false, 0.01, rng)
	tp := autodiff.NewTape()
	tr.Apply(tp, tp.Constant(mat.RandN(4, 3, 0.1, rng)))
	if len(tr.lastW) != 2 {
		t.Fatalf("pending records = %d want 2", len(tr.lastW))
	}
	tr.DiscardGrads()
	if len(tr.lastW) != 0 {
		t.Fatal("DiscardGrads left records")
	}
}

func TestTranslatorOutputRowsNormalized(t *testing.T) {
	// The post-norm residual encoders emit layer-normalized rows: zero
	// mean, unit variance. This is the invariant that prevents both the
	// dead-relu collapse and the residual explosion (see the Translator
	// doc comment).
	rng := rand.New(rand.NewSource(7))
	tr := NewTranslator(2, 4, false, 0.01, rng)
	x := mat.RandN(4, 6, 0.5, rng)
	out := tr.Translate(x)
	for i := 0; i < out.R; i++ {
		var mean, varr float64
		for _, v := range out.Row(i) {
			mean += v
		}
		mean /= float64(out.C)
		for _, v := range out.Row(i) {
			varr += (v - mean) * (v - mean)
		}
		varr /= float64(out.C)
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("row %d mean %v var %v", i, mean, varr)
		}
	}
}

func TestTranslatorGradientsReachInput(t *testing.T) {
	// Regression test for the dead-relu collapse: gradients must flow
	// back to the input matrix even for a translator whose relu units
	// are mostly inactive, thanks to the residual paths.
	rng := rand.New(rand.NewSource(8))
	tr := NewTranslator(2, 5, false, 0.01, rng)
	x := mat.RandN(5, 7, 0.5, rng)
	target := mat.RandN(5, 7, 0.5, rng)
	tp := autodiff.NewTape()
	tx := tp.Param(x)
	out := tr.Apply(tp, tx)
	loss := tp.MSE(out, tp.Constant(target))
	tp.Backward(loss)
	tr.DiscardGrads()
	if tx.Grad.FrobeniusNorm() == 0 {
		t.Fatal("input gradient vanished through translator")
	}
}
