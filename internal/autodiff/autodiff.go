// Package autodiff implements a small reverse-mode automatic
// differentiation engine over dense matrices. It exists because this
// repository is stdlib-only: the paper's translators (stacks of
// self-attention and feed-forward layers), R-GCN, and SimplE all need
// gradients, and there is no mature Go autodiff to lean on.
//
// Usage: create a Tape, lift parameters and constants into Tensors with
// Param/Constant, compose ops (MatMul, Relu, SoftmaxRows, ...), reduce to
// a scalar loss, then call Backward. Gradients accumulate into the Grad
// field of every Tensor with RequiresGrad set.
//
// A Tape is reusable. Reset rewinds it, and the next pass records into
// the same node slots: the k-th op of a pass writes its value and
// gradient into the buffers slot k held on the pass before, growing them
// only when they are too small, and backward dispatches on an op kind
// kept in the slot rather than on a per-op closure. A pass that records
// the same op graph as the one before therefore allocates nothing.
// Every op keeps its arithmetic and its order, so a pass on a reused
// tape is bit-identical to the same pass on a fresh one.
//
// The price is that Reset recycles buffers: every Tensor an earlier pass
// returned, and every matrix reachable from it, is invalid after Reset.
// Copy out (Clone) what must outlive the pass before resetting.
package autodiff

import (
	"fmt"
	"math"

	"transn/internal/mat"
)

// Tensor is a node in the computation graph. Value holds the forward
// result; Grad accumulates ∂loss/∂Value during Backward. A Tensor
// recorded by a Tape is one of its slots: it is valid until the tape's
// next Reset.
type Tensor struct {
	Value        *mat.Dense
	Grad         *mat.Dense
	RequiresGrad bool

	op     opKind
	a, b   *Tensor     // inputs; b is nil for unary ops
	s      float64     // Scale's factor
	idx    []int       // GatherRows' row indices (caller-owned)
	labels []float64   // LogisticLoss' labels (caller-owned)
	sparse *mat.Sparse // SparseMatMul's constant matrix
	aux    []float64   // LayerNormRows' per-row 1/√(σ²+ε)

	// val and grad are the slot's own buffers. Op results live in val;
	// Grad points at grad whenever the slot requires gradients. Both are
	// kept across Reset and reused by the next op recorded here.
	val, grad mat.Dense
}

// opKind names the op that produced a Tensor; backward dispatches on it.
type opKind uint8

const (
	opLeaf opKind = iota // Param or Constant: nothing to propagate
	opMatMul
	opMatMulT
	opAdd
	opSub
	opElemMul
	opScale
	opAddColBroadcast
	opAddRowBroadcast
	opRelu
	opSigmoid
	opTanh
	opSoftmaxRows
	opSumAll
	opLayerNormRows
	opSparseMatMul
	opGatherRows
	opSumRows
	opLogisticLoss
)

// Tape records the computation graph in creation order so Backward can
// replay it in reverse. Call Reset before each new pass to reuse the
// tape's node slots and buffers; see the package doc for what that
// invalidates. A Tape is not safe for concurrent use.
type Tape struct {
	nodes []*Tensor // slots; nodes[:n] hold the current pass
	n     int
	// tmp holds backward products (e.g. dOut·Bᵀ) between computing them
	// and accumulating them into an input's gradient.
	tmp mat.Dense
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset rewinds the tape for the next pass, keeping every slot and its
// buffers. It drops the slots' references to caller-owned memory
// (lifted matrices, index and label slices), so a tape kept in a pool
// does not pin them. Tensors from the previous pass are invalid after
// Reset.
//
//lint:alloc-free rewinds the pooled serving tape and every training segment's tape, pinned by TestTapeReuseAllocFree
func (tp *Tape) Reset() {
	for _, t := range tp.nodes[:tp.n] {
		if t.op == opLeaf {
			t.Value = nil
		}
		t.a, t.b, t.idx, t.labels, t.sparse = nil, nil, nil, nil, nil
	}
	tp.n = 0
}

// Len returns the number of recorded nodes.
func (tp *Tape) Len() int { return tp.n }

// slot returns the next node slot set up for op with inputs a and b,
// growing the tape by one slot when every existing slot is in use.
func (tp *Tape) slot(op opKind, a, b *Tensor) *Tensor {
	if tp.n == len(tp.nodes) {
		tp.nodes = append(tp.nodes, new(Tensor))
	}
	t := tp.nodes[tp.n]
	tp.n++
	t.op, t.a, t.b = op, a, b
	t.s, t.idx, t.labels, t.sparse = 0, nil, nil, nil
	return t
}

// Param lifts v into the graph as a trainable leaf. The returned tensor
// aliases v, so optimizer updates through Value are seen by later passes.
// Its Grad holds ∂loss/∂v after Backward.
func (tp *Tape) Param(v *mat.Dense) *Tensor {
	t := tp.slot(opLeaf, nil, nil)
	t.Value = v
	t.RequiresGrad = true
	t.Grad = t.grad.Resize(v.R, v.C)
	return t
}

// Constant lifts v into the graph as a non-trainable leaf.
func (tp *Tape) Constant(v *mat.Dense) *Tensor {
	t := tp.slot(opLeaf, nil, nil)
	t.Value = v
	t.RequiresGrad = false
	t.Grad = nil
	return t
}

// result records an r×c op output with inputs a and b (b may be nil),
// wiring RequiresGrad and Grad storage. The caller writes every element
// of the returned tensor's Value.
func (tp *Tape) result(op opKind, a, b *Tensor, r, c int) *Tensor {
	t := tp.slot(op, a, b)
	t.Value = t.val.Resize(r, c)
	t.RequiresGrad = a.RequiresGrad || (b != nil && b.RequiresGrad)
	t.Grad = nil
	if t.RequiresGrad {
		t.Grad = t.grad.Resize(r, c)
		ensureGrad(a)
		if b != nil {
			ensureGrad(b)
		}
	}
	return t
}

// ensureGrad gives grad storage to a tensor that requires gradients but
// has none (covers constants marked RequiresGrad by hand).
func ensureGrad(t *Tensor) {
	if t.RequiresGrad && t.Grad == nil {
		t.Grad = t.grad.Resize(t.Value.R, t.Value.C)
	}
}

// Backward runs reverse-mode accumulation from loss, which must be a 1x1
// tensor produced by this tape. The seed gradient is 1.
//
//lint:alloc-free steady-state backward of every translator segment; its scratch grows on the first pass only, pinned by TestTapeReuseAllocFree
func (tp *Tape) Backward(loss *Tensor) {
	if loss.Value.R != 1 || loss.Value.C != 1 {
		nonScalarLoss(loss.Value.R, loss.Value.C)
	}
	nodes := tp.nodes[:tp.n]
	// Zero all intermediate grads, then seed.
	for _, n := range nodes {
		if n.Grad != nil {
			n.Grad.Zero()
		}
	}
	if loss.Grad == nil {
		loss.Grad = loss.grad.Resize(1, 1)
	}
	loss.Grad.Set(0, 0, 1)
	// Nodes are recorded in topological (creation) order; reverse it.
	for i := len(nodes) - 1; i >= 0; i-- {
		if n := nodes[i]; n.op != opLeaf && n.RequiresGrad && n.Grad != nil {
			tp.backward(n)
		}
	}
}

// nonScalarLoss panics out of line, so Backward's formatting does not
// allocate on its hot path.
//
//go:noinline
func nonScalarLoss(r, c int) {
	panic(fmt.Sprintf("autodiff: Backward requires scalar loss, got %dx%d", r, c))
}

// backward propagates out.Grad into the gradients of out's inputs.
//
//lint:alloc-free per-op backward dispatch, pinned by TestTapeReuseAllocFree
func (tp *Tape) backward(out *Tensor) {
	a, b := out.a, out.b
	switch out.op {
	case opMatMul:
		if a.RequiresGrad {
			// dA += dOut · Bᵀ
			mat.AddScaled(a.Grad, 1, mat.MatMulT(tp.tmp.Resize(out.Grad.R, b.Value.R), out.Grad, b.Value))
		}
		if b.RequiresGrad {
			// dB += Aᵀ · dOut
			mat.AddScaled(b.Grad, 1, mat.TMatMul(tp.tmp.Resize(a.Value.C, out.Grad.C), a.Value, out.Grad))
		}
	case opMatMulT:
		if a.RequiresGrad {
			// out = A·Bᵀ ⇒ dA += dOut · B
			mat.AddScaled(a.Grad, 1, mat.MatMul(tp.tmp.Resize(out.Grad.R, b.Value.C), out.Grad, b.Value))
		}
		if b.RequiresGrad {
			// dB += dOutᵀ · A
			mat.AddScaled(b.Grad, 1, mat.TMatMul(tp.tmp.Resize(out.Grad.C, a.Value.C), out.Grad, a.Value))
		}
	case opAdd:
		if a.RequiresGrad {
			mat.AddScaled(a.Grad, 1, out.Grad)
		}
		if b.RequiresGrad {
			mat.AddScaled(b.Grad, 1, out.Grad)
		}
	case opSub:
		if a.RequiresGrad {
			mat.AddScaled(a.Grad, 1, out.Grad)
		}
		if b.RequiresGrad {
			mat.AddScaled(b.Grad, -1, out.Grad)
		}
	case opElemMul:
		if a.RequiresGrad {
			mat.AddScaled(a.Grad, 1, mat.ElemMul(tp.tmp.Resize(out.Grad.R, out.Grad.C), out.Grad, b.Value))
		}
		if b.RequiresGrad {
			mat.AddScaled(b.Grad, 1, mat.ElemMul(tp.tmp.Resize(out.Grad.R, out.Grad.C), out.Grad, a.Value))
		}
	case opScale:
		mat.AddScaled(a.Grad, out.s, out.Grad)
	case opAddColBroadcast:
		if a.RequiresGrad {
			mat.AddScaled(a.Grad, 1, out.Grad)
		}
		if b.RequiresGrad {
			for i := 0; i < out.Grad.R; i++ {
				var s float64
				for _, g := range out.Grad.Row(i) {
					s += g
				}
				b.Grad.Set(i, 0, b.Grad.At(i, 0)+s)
			}
		}
	case opAddRowBroadcast:
		if a.RequiresGrad {
			mat.AddScaled(a.Grad, 1, out.Grad)
		}
		if b.RequiresGrad {
			bg := b.Grad.Row(0)
			for i := 0; i < out.Grad.R; i++ {
				row := out.Grad.Row(i)
				for j := range row {
					bg[j] += row[j]
				}
			}
		}
	case opRelu:
		for i, av := range a.Value.Data {
			if av > 0 {
				a.Grad.Data[i] += out.Grad.Data[i]
			}
		}
	case opSigmoid:
		for i, s := range out.Value.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * s * (1 - s)
		}
	case opTanh:
		for i, th := range out.Value.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * (1 - th*th)
		}
	case opSoftmaxRows:
		// For each row: dx_j = s_j * (g_j - Σ_k g_k s_k).
		for i := 0; i < out.Value.R; i++ {
			srow := out.Value.Row(i)
			grow := out.Grad.Row(i)
			var dot float64
			for k := range srow {
				dot += grow[k] * srow[k]
			}
			arow := a.Grad.Row(i)
			for j := range srow {
				arow[j] += srow[j] * (grow[j] - dot)
			}
		}
	case opSumAll:
		g := out.Grad.At(0, 0)
		for i := range a.Grad.Data {
			a.Grad.Data[i] += g
		}
	case opLayerNormRows:
		layerNormBackward(out)
	case opSparseMatMul:
		mat.AddScaled(a.Grad, 1, out.sparse.TMul(tp.tmp.Resize(out.sparse.C, out.Grad.C), out.Grad))
	case opGatherRows:
		for i, r := range out.idx {
			dst := a.Grad.Row(r)
			src := out.Grad.Row(i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	case opSumRows:
		for i := 0; i < a.Grad.R; i++ {
			g := out.Grad.At(i, 0)
			row := a.Grad.Row(i)
			for j := range row {
				row[j] += g
			}
		}
	case opLogisticLoss:
		g := out.Grad.At(0, 0) / float64(len(out.labels))
		for i, y := range out.labels {
			s := a.Value.At(i, 0)
			// d/ds softplus(-y·s) = -y·σ(-y·s)
			a.Grad.Set(i, 0, a.Grad.At(i, 0)-g*y*sigmoid(-y*s))
		}
	}
}

// MatMul returns a·b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	out := tp.result(opMatMul, a, b, a.Value.R, b.Value.C)
	mat.MatMul(out.Value, a.Value, b.Value)
	return out
}

// MatMulT returns a·bᵀ.
func (tp *Tape) MatMulT(a, b *Tensor) *Tensor {
	out := tp.result(opMatMulT, a, b, a.Value.R, b.Value.R)
	mat.MatMulT(out.Value, a.Value, b.Value)
	return out
}

// Add returns a+b (same shape).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	out := tp.result(opAdd, a, b, a.Value.R, a.Value.C)
	mat.Add(out.Value, a.Value, b.Value)
	return out
}

// Sub returns a-b (same shape).
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	out := tp.result(opSub, a, b, a.Value.R, a.Value.C)
	mat.Sub(out.Value, a.Value, b.Value)
	return out
}

// ElemMul returns the Hadamard product a⊙b.
func (tp *Tape) ElemMul(a, b *Tensor) *Tensor {
	out := tp.result(opElemMul, a, b, a.Value.R, a.Value.C)
	mat.ElemMul(out.Value, a.Value, b.Value)
	return out
}

// Scale returns s*a.
func (tp *Tape) Scale(s float64, a *Tensor) *Tensor {
	out := tp.result(opScale, a, nil, a.Value.R, a.Value.C)
	out.s = s
	mat.Scale(out.Value, s, a.Value)
	return out
}

// AddColBroadcast returns a + b·1ᵀ where b is an R×1 column vector added to
// every column of a. This matches the paper's feed-forward bias b^{|λ|×1}.
func (tp *Tape) AddColBroadcast(a, b *Tensor) *Tensor {
	if b.Value.C != 1 || b.Value.R != a.Value.R {
		panic(fmt.Sprintf("autodiff: AddColBroadcast wants %dx1 bias, got %dx%d", a.Value.R, b.Value.R, b.Value.C))
	}
	out := tp.result(opAddColBroadcast, a, b, a.Value.R, a.Value.C)
	v := out.Value
	copy(v.Data, a.Value.Data)
	for i := 0; i < v.R; i++ {
		bi := b.Value.At(i, 0)
		row := v.Row(i)
		for j := range row {
			row[j] += bi
		}
	}
	return out
}

// AddRowBroadcast returns a + 1·bᵀ where b is a 1×C row vector added to
// every row of a.
func (tp *Tape) AddRowBroadcast(a, b *Tensor) *Tensor {
	if b.Value.R != 1 || b.Value.C != a.Value.C {
		panic(fmt.Sprintf("autodiff: AddRowBroadcast wants 1x%d bias, got %dx%d", a.Value.C, b.Value.R, b.Value.C))
	}
	out := tp.result(opAddRowBroadcast, a, b, a.Value.R, a.Value.C)
	v := out.Value
	copy(v.Data, a.Value.Data)
	brow := b.Value.Row(0)
	for i := 0; i < v.R; i++ {
		row := v.Row(i)
		for j := range row {
			row[j] += brow[j]
		}
	}
	return out
}

// Relu returns max(0, a) elementwise.
func (tp *Tape) Relu(a *Tensor) *Tensor {
	out := tp.result(opRelu, a, nil, a.Value.R, a.Value.C)
	mat.Relu(out.Value, a.Value)
	return out
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	out := tp.result(opSigmoid, a, nil, a.Value.R, a.Value.C)
	for i, x := range a.Value.Data {
		out.Value.Data[i] = sigmoid(x)
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	out := tp.result(opTanh, a, nil, a.Value.R, a.Value.C)
	for i, x := range a.Value.Data {
		out.Value.Data[i] = math.Tanh(x)
	}
	return out
}

// SoftmaxRows applies softmax independently to each row of a.
func (tp *Tape) SoftmaxRows(a *Tensor) *Tensor {
	out := tp.result(opSoftmaxRows, a, nil, a.Value.R, a.Value.C)
	mat.SoftmaxRows(out.Value, a.Value)
	return out
}

// SumAll reduces a to a 1x1 tensor containing the sum of all elements.
func (tp *Tape) SumAll(a *Tensor) *Tensor {
	out := tp.result(opSumAll, a, nil, 1, 1)
	out.Value.Set(0, 0, a.Value.Sum())
	return out
}

// MeanAll reduces a to a 1x1 tensor containing the mean of all elements.
func (tp *Tape) MeanAll(a *Tensor) *Tensor {
	n := float64(len(a.Value.Data))
	return tp.Scale(1/n, tp.SumAll(a))
}

// MSE returns the mean squared error between a and b as a 1x1 tensor:
// mean((a-b)²).
func (tp *Tape) MSE(a, b *Tensor) *Tensor {
	d := tp.Sub(a, b)
	return tp.MeanAll(tp.ElemMul(d, d))
}

// Square returns a⊙a.
func (tp *Tape) Square(a *Tensor) *Tensor { return tp.ElemMul(a, a) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
