package transn

import (
	"math"
	"math/rand"
	"sync"

	"transn/internal/autodiff"
	"transn/internal/mat"
)

// Translator projects the node-embedding matrix of a sampled path from
// one view's embedding space into another's (Section III-B2). It is a
// stack of H encoders, each a self-attention layer (Eq. 8) followed by a
// feed-forward layer (Eq. 9):
//
//	S(A) = softmax(A·Aᵀ/√d)·A
//	F(A) = relu(W·A + b)   with W ∈ R^{L×L}, b ∈ R^{L×1}
//
// where L is the fixed path length. Each sublayer is wrapped in a
// residual connection (x ← x + sublayer(x)), following the transformer
// encoder the paper cites [Vaswani et al., 2017]. Without residuals the
// plain relu stack collapses: the all-zero output is a local optimum of
// the translation objective against zero-mean embedding targets, and a
// dead relu stack receives no gradient to escape it. See DESIGN.md §2.
//
// The simple variant (ablation TransN-With-Simple-Translator) is a
// single feed-forward layer, still with its residual.
type Translator struct {
	Ws, Bs []*mat.Dense // one per encoder; len 1 when Simple
	Simple bool

	optW, optB []*autodiff.Adam
	// lastW/lastB hold the Param tensors of every Apply since the last
	// Step; Step sums duplicate applications' gradients (the translator
	// appears twice in each reconstruction graph, cf. Figure 5).
	lastW, lastB []*autodiff.Tensor
}

// NewTranslator constructs a translator for paths of length pathLen with
// the given number of encoders, or a single feed-forward layer when
// simple is set.
func NewTranslator(encoders, pathLen int, simple bool, lr float64, rng *rand.Rand) *Translator {
	n := encoders
	if simple {
		n = 1
	}
	t := &Translator{Simple: simple}
	for i := 0; i < n; i++ {
		t.Ws = append(t.Ws, mat.XavierInit(pathLen, pathLen, rng))
		t.Bs = append(t.Bs, mat.New(pathLen, 1))
		t.optW = append(t.optW, autodiff.NewAdam(lr))
		t.optB = append(t.optB, autodiff.NewAdam(lr))
	}
	return t
}

// PathLen returns the fixed path length the translator was built for.
func (t *Translator) PathLen() int { return t.Ws[0].R }

// forward builds the encoder stack's computation on tp from the lifted
// input x. lift raises each parameter matrix onto the tape — tp.Param
// for training (gradients tracked), tp.Constant for pure inference —
// and record, when non-nil, receives every lifted (W, b) pair so Step
// can read their gradients after Backward.
func (t *Translator) forward(tp *autodiff.Tape, x *autodiff.Tensor, lift func(*mat.Dense) *autodiff.Tensor, record func(w, b *autodiff.Tensor)) *autodiff.Tensor {
	d := float64(x.Value.C)
	out := x
	for i := range t.Ws {
		w := lift(t.Ws[i])
		b := lift(t.Bs[i])
		if !t.Simple {
			// Residual self-attention sublayer with post-norm.
			att := tp.SoftmaxRows(tp.Scale(1/math.Sqrt(d), tp.MatMulT(out, out)))
			out = tp.LayerNormRows(tp.Add(out, tp.MatMul(att, out)))
		}
		// Residual feed-forward sublayer with post-norm.
		out = tp.LayerNormRows(tp.Add(out, tp.Relu(tp.AddColBroadcast(tp.MatMul(w, out), b))))
		if record != nil {
			record(w, b)
		}
	}
	return out
}

// Apply records the translator's forward computation on the tape and
// returns the translated matrix tensor. x must be PathLen×d. Apply
// mutates the translator's gradient-tracking scratch and belongs to the
// training path: it must not be called concurrently with itself or with
// Step/DiscardGrads. Inference paths use Translate instead.
func (t *Translator) Apply(tp *autodiff.Tape, x *autodiff.Tensor) *autodiff.Tensor {
	return t.forward(tp, x, tp.Param, func(w, b *autodiff.Tensor) {
		// Track the freshly lifted parameter tensors so Step can read
		// their gradients after Backward.
		t.lastW = append(t.lastW, w)
		t.lastB = append(t.lastB, b)
	})
}

// Step applies one Adam update using the gradients accumulated by
// Backward through every Apply since the previous Step.
func (t *Translator) Step() {
	for k, w := range t.lastW {
		i := k % len(t.Ws)
		// Accumulate duplicate applications into the first occurrence.
		if k >= len(t.Ws) {
			mat.AddScaled(t.lastW[i].Grad, 1, w.Grad)
			mat.AddScaled(t.lastB[i].Grad, 1, t.lastB[k].Grad)
		}
	}
	for i := range t.Ws {
		t.optW[i].Step(t.Ws[i], t.lastW[i].Grad)
		t.optB[i].Step(t.Bs[i], t.lastB[i].Grad)
	}
	t.lastW = t.lastW[:0]
	t.lastB = t.lastB[:0]
}

// DiscardGrads clears pending Apply records without updating parameters.
func (t *Translator) DiscardGrads() {
	t.lastW = t.lastW[:0]
	t.lastB = t.lastB[:0]
}

// Translate runs the forward pass outside any training loop, for
// inference, diagnostics and tests, and returns a copy of the output.
// Unlike Apply it is safe for concurrent callers: parameters are lifted
// as constants onto a tape from the shared inference pool, and nothing
// is recorded into the translator's gradient-tracking scratch, so
// concurrent calls share only the read-only weight tables. (It
// previously routed through Apply, whose lastW/lastB appends are
// training-path scratch — two concurrent Translate calls raced on those
// slices.)
func (t *Translator) Translate(x *mat.Dense) *mat.Dense {
	pool, it := getInferTape(t.PathLen(), x.C)
	out := t.forward(&it.tp, it.tp.Constant(x), it.tp.Constant, nil).Value.Clone()
	putInferTape(pool, it)
	return out
}

// translateRowMean lifts src (one d-length embedding row) to a PathLen
// path by repeating it, runs the forward pass, and writes the mean of
// the output rows into dst (length d). Apart from a pool miss it
// allocates nothing.
//
// Its caller, Frozen.TranslateNode, serves a model that Freeze checked
// with CheckFinite, and from finite inputs the forward pass and row mean
// stay finite.
func (t *Translator) translateRowMean(dst, src []float64) {
	L := t.PathLen()
	pool, it := getInferTape(L, len(src))
	in := it.in.Resize(L, len(src))
	for k := 0; k < L; k++ {
		in.SetRow(k, src)
	}
	out := t.forward(&it.tp, it.tp.Constant(in), it.tp.Constant, nil).Value
	for c := range dst {
		dst[c] = 0
	}
	for k := 0; k < out.R; k++ {
		row := out.Row(k)
		for c := range dst {
			dst[c] += row[c]
		}
	}
	inv := 1 / float64(out.R)
	for c := range dst {
		dst[c] *= inv
	}
	putInferTape(pool, it)
}

// inferTape is one inference workspace: a tape, reused pass after pass,
// and the path matrix translateRowMean lifts a node's row into.
type inferTape struct {
	tp autodiff.Tape
	in mat.Dense
}

// tapeShape keys the inference pools: a tape only ever records passes
// of one (PathLen, d), so its slots never change size.
type tapeShape struct{ pathLen, dim int }

// inferPools maps each tapeShape to its *sync.Pool of inferTapes.
// Keying by shape keeps the tapes of one snapshot's translators apart
// from another snapshot's with a different Dim or CrossPathLen.
var inferPools sync.Map

// getInferTape takes an inference workspace for paths of pathLen rows
// of dim columns, returning it with the pool it must go back to.
func getInferTape(pathLen, dim int) (*sync.Pool, *inferTape) {
	key := tapeShape{pathLen, dim}
	p, ok := inferPools.Load(key)
	if !ok {
		p, _ = inferPools.LoadOrStore(key, &sync.Pool{New: func() any { return new(inferTape) }})
	}
	pool := p.(*sync.Pool)
	return pool, pool.Get().(*inferTape)
}

// putInferTape resets it, dropping its references to the caller's
// matrices, and returns it to pool.
func putInferTape(pool *sync.Pool, it *inferTape) {
	it.tp.Reset()
	pool.Put(it)
}
