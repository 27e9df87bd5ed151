package autodiff

import (
	"fmt"
	"math"

	"transn/internal/mat"
)

// SparseMatMul returns s·x for a constant sparse matrix s. Gradients flow
// to x only: dX += sᵀ·dOut.
func (tp *Tape) SparseMatMul(s *mat.Sparse, x *Tensor) *Tensor {
	out := tp.result(opSparseMatMul, x, nil, s.R, x.Value.C)
	out.sparse = s
	s.Mul(out.Value, x.Value)
	return out
}

// GatherRows returns the matrix whose i-th row is x's idx[i]-th row.
// The backward pass scatter-adds gradients into the gathered rows. The
// tape keeps idx until Backward, so the caller must not modify it
// before then.
func (tp *Tape) GatherRows(x *Tensor, idx []int) *Tensor {
	out := tp.result(opGatherRows, x, nil, len(idx), x.Value.C)
	out.idx = idx
	for i, r := range idx {
		out.Value.SetRow(i, x.Value.Row(r))
	}
	return out
}

// SumRows reduces each row of x to a single column: out is R×1 with
// out[i] = Σ_j x[i][j].
func (tp *Tape) SumRows(x *Tensor) *Tensor {
	out := tp.result(opSumRows, x, nil, x.Value.R, 1)
	for i := 0; i < x.Value.R; i++ {
		var s float64
		for _, e := range x.Value.Row(i) {
			s += e
		}
		out.Value.Set(i, 0, s)
	}
	return out
}

// LogisticLoss returns the mean binary cross-entropy with logits:
// mean(softplus(-y·s)) where scores is R×1 and labels[i] ∈ {+1, −1}.
// The tape keeps labels until Backward, so the caller must not modify
// them before then.
func (tp *Tape) LogisticLoss(scores *Tensor, labels []float64) *Tensor {
	if scores.Value.C != 1 || scores.Value.R != len(labels) {
		panic(fmt.Sprintf("autodiff: LogisticLoss wants %dx1 scores, got %dx%d",
			len(labels), scores.Value.R, scores.Value.C))
	}
	n := float64(len(labels))
	var total float64
	for i, y := range labels {
		total += softplus(-y * scores.Value.At(i, 0))
	}
	out := tp.result(opLogisticLoss, scores, nil, 1, 1)
	out.labels = labels
	out.Value.Set(0, 0, total/n)
	return out
}

// softplus computes log(1+exp(x)) stably.
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
