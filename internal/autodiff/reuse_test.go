package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/mat"
)

// reuseCase is one op under the tape-reuse tests: build reduces the op's
// output to a scalar loss, and shapes gives its inputs' shapes for two
// passes of different sizes.
type reuseCase struct {
	name   string
	shapes [2][][2]int
	build  func(tp *Tape, p []*Tensor) *Tensor
}

// reuseCases covers every op of the tape. Each loss is weighted by a
// second parameter where a plain mean would give uniform gradients.
var reuseCases = []reuseCase{
	{"MatMul", [2][][2]int{{{3, 4}, {4, 2}}, {{5, 2}, {2, 6}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.MatMul(p[0], p[1])))
	}},
	{"MatMulT", [2][][2]int{{{3, 4}, {5, 4}}, {{2, 6}, {3, 6}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.MatMulT(p[0], p[1])))
	}},
	{"SelfMatMulT", [2][][2]int{{{4, 3}}, {{6, 5}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.MatMulT(p[0], p[0])))
	}},
	{"AddSub", [2][][2]int{{{3, 3}, {3, 3}}, {{2, 5}, {2, 5}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.Sub(tp.Add(p[0], p[1]), tp.Scale(0.5, p[1]))))
	}},
	{"ElemMulConstant", [2][][2]int{{{2, 5}, {2, 5}}, {{4, 3}, {4, 3}}}, func(tp *Tape, p []*Tensor) *Tensor {
		c := tp.Constant(p[1].Value)
		return tp.MeanAll(tp.ElemMul(tp.ElemMul(p[0], p[1]), c))
	}},
	{"AddColBroadcast", [2][][2]int{{{3, 5}, {3, 1}}, {{6, 2}, {6, 1}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.AddColBroadcast(p[0], p[1])))
	}},
	{"AddRowBroadcast", [2][][2]int{{{3, 5}, {1, 5}}, {{6, 2}, {1, 2}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.AddRowBroadcast(p[0], p[1])))
	}},
	{"Relu", [2][][2]int{{{4, 6}, {4, 6}}, {{3, 2}, {3, 2}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.ElemMul(tp.Relu(p[0]), p[1]))
	}},
	{"Sigmoid", [2][][2]int{{{3, 3}, {3, 3}}, {{5, 4}, {5, 4}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.ElemMul(tp.Sigmoid(p[0]), p[1]))
	}},
	{"Tanh", [2][][2]int{{{3, 3}, {3, 3}}, {{2, 7}, {2, 7}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.ElemMul(tp.Tanh(p[0]), p[1]))
	}},
	{"SoftmaxRows", [2][][2]int{{{4, 5}, {4, 5}}, {{2, 3}, {2, 3}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.ElemMul(tp.SoftmaxRows(p[0]), p[1]))
	}},
	{"LayerNormRows", [2][][2]int{{{4, 6}, {4, 6}}, {{7, 3}, {7, 3}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.SumAll(tp.ElemMul(tp.LayerNormRows(p[0]), p[1]))
	}},
	{"MSE", [2][][2]int{{{3, 4}, {3, 4}}, {{5, 1}, {5, 1}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MSE(p[0], p[1])
	}},
	{"SparseMatMul", [2][][2]int{{{3, 4}}, {{3, 2}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.SparseMatMul(reuseSparse, p[0])))
	}},
	{"GatherRows", [2][][2]int{{{3, 4}}, {{5, 2}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.GatherRows(p[0], reuseIdx)))
	}},
	{"SumRows", [2][][2]int{{{4, 3}}, {{2, 6}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.MeanAll(tp.Square(tp.SumRows(p[0])))
	}},
	{"LogisticLoss", [2][][2]int{{{4, 1}}, {{6, 1}}}, func(tp *Tape, p []*Tensor) *Tensor {
		return tp.LogisticLoss(p[0], reuseLabels[:p[0].Value.R])
	}},
	{"EncoderStack", [2][][2]int{
		{{4, 3}, {4, 4}, {4, 1}, {4, 3}},
		{{6, 5}, {6, 6}, {6, 1}, {6, 5}},
	}, func(tp *Tape, p []*Tensor) *Tensor {
		// The translator's encoder: residual self-attention and
		// feed-forward sublayers, each post-normed (Eqs. 8–10).
		x, w, b, tgt := p[0], p[1], p[2], p[3]
		d := float64(x.Value.C)
		att := tp.SoftmaxRows(tp.Scale(1/math.Sqrt(d), tp.MatMulT(x, x)))
		x = tp.LayerNormRows(tp.Add(x, tp.MatMul(att, x)))
		x = tp.LayerNormRows(tp.Add(x, tp.Relu(tp.AddColBroadcast(tp.MatMul(w, x), b))))
		d2 := tp.Sub(x, tgt)
		return tp.Scale(0.25, tp.SumAll(tp.ElemMul(d2, d2)))
	}},
}

// reuseSparse, reuseIdx and reuseLabels are SparseMatMul's matrix,
// GatherRows' rows (one repeated, to exercise scatter-add) and
// LogisticLoss' labels; package variables, so the alloc pin counts only
// the tape's allocations.
var (
	reuseSparse = testSparse()
	reuseIdx    = []int{2, 0, 2, 1}
	reuseLabels = []float64{1, -1, 1, -1, -1, 1}
)

// reuseParams draws the inputs of case c at shape set si.
func reuseParams(c reuseCase, si int) []*mat.Dense {
	rng := rand.New(rand.NewSource(int64(17 + si)))
	ps := make([]*mat.Dense, len(c.shapes[si]))
	for i, s := range c.shapes[si] {
		ps[i] = mat.RandN(s[0], s[1], 0.7, rng)
	}
	return ps
}

// runPass records case c over params on tp and runs Backward.
func runPass(tp *Tape, c reuseCase, params []*mat.Dense) {
	pts := make([]*Tensor, len(params))
	for i, p := range params {
		pts[i] = tp.Param(p)
	}
	tp.Backward(c.build(tp, pts))
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements (both nil counts as equal).
func sameBits(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestTapeReuseBitIdentical runs every op's pass on one tape, Reset
// between passes, while shapes alternate between two sizes, and
// requires every node's Value and Grad to be bit-identical to the same
// pass on a fresh tape. Running the cases back to back on the shared
// tape means each slot is reused by other ops and other shapes before
// it is checked.
func TestTapeReuseBitIdentical(t *testing.T) {
	reused := NewTape()
	for round, si := range []int{0, 1, 0, 1} {
		for _, c := range reuseCases {
			params := reuseParams(c, si)
			fresh := NewTape()
			runPass(fresh, c, params)
			reused.Reset()
			runPass(reused, c, params)
			if reused.Len() != fresh.Len() {
				t.Fatalf("round %d %s: reused tape recorded %d nodes, fresh %d", round, c.name, reused.Len(), fresh.Len())
			}
			for k := 0; k < fresh.Len(); k++ {
				f, r := fresh.nodes[k], reused.nodes[k]
				if !sameBits(f.Value, r.Value) {
					t.Fatalf("round %d %s: node %d Value differs from a fresh tape", round, c.name, k)
				}
				if !sameBits(f.Grad, r.Grad) {
					t.Fatalf("round %d %s: node %d Grad differs from a fresh tape", round, c.name, k)
				}
			}
		}
	}
}

// TestTapeReuseAllocFree pins the steady state: once a tape has
// recorded a pass, recording and differentiating the same op graph
// again allocates nothing, for every op.
func TestTapeReuseAllocFree(t *testing.T) {
	for _, c := range reuseCases {
		params := reuseParams(c, 1)
		pts := make([]*Tensor, len(params))
		tp := NewTape()
		pass := func() {
			tp.Reset()
			for i, p := range params {
				pts[i] = tp.Param(p)
			}
			tp.Backward(c.build(tp, pts))
		}
		pass()
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Errorf("%s: a pass on a reused tape allocates %v times, want 0", c.name, n)
		}
	}
}

// TestResetDropsCallerMatrices checks that Reset forgets the matrices
// lifted onto the tape, so a pooled tape does not keep them alive.
func TestResetDropsCallerMatrices(t *testing.T) {
	tp := NewTape()
	x := tp.Constant(mat.New(2, 2))
	y := tp.Scale(2, tp.Param(mat.New(2, 2)))
	tp.Reset()
	if x.Value != nil || y.a != nil {
		t.Fatal("Reset kept references to the previous pass's inputs")
	}
}
