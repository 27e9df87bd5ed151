// Package skipgram implements the skip-gram objective (Equation 3) used
// by the paper's single-view algorithm and by the walk-based baselines.
// Context selection follows Definition 6: window 1 on homo-views and
// window 2 on heter-views. The softmax is estimated by negative
// sampling (word2vec-style, unigram^0.75 table).
//
// A pair step draws its negatives first, then scores the context and
// negative rows with one mat.DotRows call and applies their updates
// with one mat.UpdateRows call, splitting the batch into segments
// before a repeated negative. The result is bit-identical to scoring
// and updating one row at a time (see trainPair).
//
// Negatives come from a per-shard rngstream.SplitMix64, seeded with one
// Uint64 of the shard's *rand.Rand: each negative is one inlined
// generator step and one alias pick, as in word2vec. The pass loss
// folds the clamped probabilities of all of a shard's pairs into one
// running product, so it takes a math.Log only when that product
// nears underflow and once at the end of the shard.
package skipgram

import (
	"math"
	"math/rand"
	"slices"

	"transn/internal/mat"
	"transn/internal/par"
	"transn/internal/rngstream"
	"transn/internal/walk"
)

// Model holds input (node) and output (context) embedding tables. In is
// the embedding users read out; Out exists only during training. The two
// must not share storage: a pair step scores a segment's output rows
// before it moves any of them, which matches moving them one at a time
// only while no output row is the center row.
type Model struct {
	In, Out *mat.Dense // numNodes × dim
}

// NewModel returns a model with word2vec-style initialization: In is
// Uniform(-0.5/dim, 0.5/dim), Out is zero.
func NewModel(numNodes, dim int, rng *rand.Rand) *Model {
	return &Model{
		In:  mat.EmbeddingInit(numNodes, dim, rng),
		Out: mat.New(numNodes, dim),
	}
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.In.C }

// NegSampler draws negative examples proportional to freq^0.75, the
// word2vec unigram smoothing.
type NegSampler struct {
	alias *walk.Alias
}

// NewNegSampler builds a sampler from raw frequency counts. Zero-count
// outcomes get a tiny floor so every node can be drawn.
func NewNegSampler(freq []float64) *NegSampler {
	w := make([]float64, len(freq))
	for i, f := range freq {
		if f <= 0 {
			f = 1e-3
		}
		w[i] = math.Pow(f, 0.75)
	}
	return &NegSampler{alias: walk.NewAlias(w)}
}

// Draw samples one negative node index from the next word of r.
func (s *NegSampler) Draw(r *rngstream.SplitMix64) int { return s.alias.Pick(r.Uint64()) }

// CorpusFrequencies counts node occurrences over a path corpus of local
// indices in [0, numNodes).
func CorpusFrequencies(paths [][]int, numNodes int) []float64 {
	freq := make([]float64, numNodes)
	for _, p := range paths {
		for _, n := range p {
			freq[n]++
		}
	}
	return freq
}

// ContextOffsets returns Definition 6's context offsets: {−1, +1} for
// homo-views, {−2, −1, +1, +2} for heter-views.
func ContextOffsets(hetero bool) []int {
	if hetero {
		return []int{-2, -1, 1, 2}
	}
	return []int{-1, 1}
}

// SymmetricOffsets returns the offsets of a plain window of size w
// (±1..±w), used by the DeepWalk/node2vec/metapath2vec baselines.
func SymmetricOffsets(w int) []int {
	out := make([]int, 0, 2*w)
	for d := -w; d <= w; d++ {
		if d != 0 {
			out = append(out, d)
		}
	}
	return out
}

// TrainPair applies one SGNS update for (center, context): the positive
// pair is pushed together, neg sampled negatives are pushed apart.
// Negatives equal to the true context are re-drawn a bounded number of
// times. The negatives come from a stream seeded with one rng.Uint64.
//
// TrainPair allocates its own d-length center-gradient buffer per call
// and returns no loss; it serves callers that train edge by edge (the
// LINE baseline). Corpus passes call trainPair with one batch per shard
// instead.
func (m *Model) TrainPair(center, context, neg int, lr float64, s *NegSampler, rng *rand.Rand) {
	b := newPairBatch(m.In.C, rng)
	m.trainPair(center, context, neg, lr, s, &b)
}

// foldBelow bounds the running probability product of a pairBatch.
// Every factor is at least 1e-10, so folding the product into the loss
// as soon as it drops below 1e-280 keeps it at or above 1e-290, inside
// the normal float64 range: no underflow to zero and no subnormal
// precision loss, however many pairs and negatives it spans.
const foldBelow = 1e-280

// maxRows is the most output rows a pair batch holds: the context and
// up to maxRows−1 negatives. It covers every negative count the
// repository trains with, so a pair draws all of its negatives before
// its first update; a larger neg draws and applies them maxRows−1 at a
// time, with the same result.
const maxRows = 16

// pairBatch is one shard's state for trainPair: the d-length center
// gradient, the output rows of the pair's current batch, their scores
// and then their steps, the shard's negative stream, and its running
// loss, which is loss − log prod. A corpus pass keeps one on its stack,
// so the gradient buffer is its only allocation.
type pairBatch struct {
	grad       []float64
	rows       [maxRows]int
	vals       [maxRows]float64
	negs       rngstream.SplitMix64
	loss, prod float64
}

// newPairBatch returns the batch for a d-wide model whose negative
// stream is seeded with one rng.Uint64, and whose loss is zero.
func newPairBatch(d int, rng *rand.Rand) pairBatch {
	return pairBatch{grad: make([]float64, d), negs: rngstream.NewSplitMix64(rng.Uint64()), prod: 1}
}

// total returns the loss of every pair the batch has trained.
func (b *pairBatch) total() float64 { return b.loss - math.Log(b.prod) }

// trainPair is TrainPair with caller-owned batch b, whose gradient it
// clears before use, and whose stream and loss carry over from the
// shard's earlier pairs.
//
// The pair works on its output rows as one batch: the context, then the
// negatives, drawn first (the draws never read the model, so the
// stream is the one a draw-update-draw loop would consume). The batch
// splits into segments before any negative that repeats a row earlier
// in its segment; a 64-bit mask of row&63 skips the scan for rows that
// cannot repeat. For each segment, one mat.DotRows call scores every
// row against the center, the sigmoid, step and clamped probability of
// each row follow in row order, and one mat.UpdateRows call applies the
// updates: per row, the center gradient reads the row, then the row
// moves. Inside a segment the rows are distinct, so no score reads a
// row an earlier update moved; a repeated row is scored only after the
// previous segment's update. The result is therefore bit-identical to
// scoring and updating one row at a time.
//
// The loss Σ −log pᵢ over the positives and the sampled negatives of
// all the batch's pairs is kept as loss − log ∏pᵢ: the product carries
// from pair to pair and is folded into loss only when it nears
// underflow (see foldBelow), which at the default five negatives is
// once in a few hundred pairs. A NaN score makes the product, and so
// the loss, NaN, which the trainer's finite guard (transn/finite.go)
// reports.
//
// Allocation-free; pinned by TestTrainCorpusAllocsConstant.
func (m *Model) trainPair(center, context, neg int, lr float64, s *NegSampler, b *pairBatch) {
	in := m.In.Row(center)
	clear(b.grad)
	rows := append(b.rows[:0], context)
	positive := true
	for k := 0; ; rows = rows[:0] {
		for ; k < neg && len(rows) < maxRows; k++ {
			n := s.Draw(&b.negs)
			for tries := 0; n == context && tries < 4; tries++ {
				n = s.Draw(&b.negs)
			}
			if n != context {
				rows = append(rows, n)
			}
		}
		// seen has bit r&63 set for every row r in rows[lo:hi], so the
		// scan runs only for a row that may repeat one.
		lo, seen := 0, uint64(0)
		for hi, r := range rows {
			bit := uint64(1) << (uint(r) & 63)
			if seen&bit != 0 && slices.Contains(rows[lo:hi], r) {
				m.pairSegment(in, rows[lo:hi], lr, positive, b)
				positive = false
				lo, seen = hi, 0
			}
			seen |= bit
		}
		if lo < len(rows) {
			m.pairSegment(in, rows[lo:], lr, positive, b)
			positive = false
		}
		if k == neg {
			break
		}
	}
	applyRowGrad(in, b.grad)
}

// pairSegment scores and updates one segment of distinct output rows
// (see trainPair). Its first row is the positive context when positive
// is set; every other row is a negative. Each row's clamped probability
// the model gives its label, max(score, 1e-10) for the positive and
// max(1−score, 1e-10) for a negative, multiplies into b.prod, which is
// folded into b.loss as soon as it drops below foldBelow.
//
// Allocation-free; pinned by TestTrainCorpusAllocsConstant.
func (m *Model) pairSegment(in []float64, rows []int, lr float64, positive bool, b *pairBatch) {
	vals := b.vals[:len(rows)]
	mat.DotRows(in, m.Out, rows, vals)
	for j, dot := range vals {
		score := tableSigmoid(dot)
		label, p := 0.0, 1-score
		if positive && j == 0 {
			label, p = 1, score
		}
		vals[j] = (score - label) * lr
		// Not math.Max: on amd64 that is an assembly call the compiler
		// cannot inline. The comparison clamps identically and lets a
		// NaN through.
		if p < 1e-10 {
			p = 1e-10
		}
		b.prod *= p
		if b.prod < foldBelow {
			b.loss -= math.Log(b.prod)
			b.prod = 1
		}
	}
	mat.UpdateRows(in, m.Out, rows, vals, b.grad)
}

// applyRowGrad subtracts the accumulated center gradient from the input
// row.
//
// Allocation-free; pinned by TestTrainCorpusAllocsConstant.
func applyRowGrad(in, grad []float64) {
	mat.Axpy(-1, grad, in)
}

// TrainCorpus runs one SGNS pass over the corpus using the given context
// offsets and returns the mean pair loss. lr is held constant within the
// pass; callers decay it across passes.
func (m *Model) TrainCorpus(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) float64 {
	loss, pairs := m.trainCorpus(paths, offsets, neg, lr, s, rng)
	if pairs == 0 {
		return 0
	}
	return loss / float64(pairs)
}

// trainCorpus is the shared pass body: it returns the summed pair loss
// and the pair count so sharded callers can combine shard means exactly.
// It owns the pass's pair batch, whose center-gradient buffer is the
// pass's one allocation, and takes one rng.Uint64 to seed its negative
// stream; each shard of TrainCorpusParallelStats runs its own
// trainCorpus.
func (m *Model) trainCorpus(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) (float64, int) {
	b := newPairBatch(m.In.C, rng)
	var pairs int
	for _, p := range paths {
		for k, center := range p {
			for _, d := range offsets {
				j := k + d
				if j < 0 || j >= len(p) || p[j] == center {
					// Walks may revisit a node; a self-pair carries no
					// proximity information (and inflates norms when the
					// input and output tables are shared).
					continue
				}
				m.trainPair(center, p[j], neg, lr, s, &b)
				pairs++
			}
		}
	}
	return b.total(), pairs
}

// TrainCorpusParallelStats runs one SGNS pass with the corpus
// partitioned into min(workers, len(paths)) contiguous shards, shard s
// training under the private RNG stream rngstream(seed, s). Shards
// apply in shard order, so the pass is byte-reproducible for a fixed
// (seed, workers); with workers <= 1 it is TrainCorpus under stream
// (seed, 0). Training concurrency comes from the caller: transn.Train
// runs the passes of different views, which own disjoint tables, at the
// same time. The negative sampler is shared and read-only.
//
// It returns the mean pair loss across all shards, the number of
// (center, context) training pairs applied — the throughput unit
// behind examples/sec — and the pass's timing for the telemetry layer.
func (m *Model) TrainCorpusParallelStats(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, seed int64, workers int) (float64, int, par.Stats) {
	shards := max(1, min(workers, len(paths)))
	var loss float64
	var pairs int
	st := par.RunTimed(1, shards, func(sh int) {
		lo := sh * len(paths) / shards
		hi := (sh + 1) * len(paths) / shards
		l, n := m.trainCorpus(paths[lo:hi], offsets, neg, lr, s, rngstream.New(seed, int64(sh)))
		loss += l
		pairs += n
	})
	if pairs == 0 {
		return 0, 0, st
	}
	return loss / float64(pairs), pairs, st
}

// sigmoid is the exact logistic function, written so that math.Exp
// never overflows.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// The training kernels read the sigmoid from a table, as the original
// word2vec trainer does (Mikolov et al. 2013): sigmoidSteps equal steps
// over [−sigmoidBound, sigmoidBound], linearly interpolated. The
// interpolation error is at most h²/8·max|d²σ/dx²| ≈ 1.84e-7 for the step
// h = 1/256, far below the noise of a stochastic gradient step.
const (
	sigmoidBound = 8
	sigmoidSteps = 4096
	sigmoidScale = sigmoidSteps / (2 * sigmoidBound) // table entries per unit of x
)

// sigmoidTable[k] = sigmoid(−sigmoidBound + k/sigmoidScale).
var sigmoidTable = func() (t [sigmoidSteps + 1]float64) {
	for k := range t {
		t[k] = sigmoid(-sigmoidBound + float64(k)/sigmoidScale)
	}
	return t
}()

// tableSigmoid is sigmoid interpolated from sigmoidTable inside the
// open interval (−sigmoidBound, sigmoidBound). Outside it, and for NaN,
// it returns the exact sigmoid, so saturated scores still reach the
// 1e-10 loss clamp and a NaN still propagates to the loss.
func tableSigmoid(x float64) float64 {
	if !(x > -sigmoidBound && x < sigmoidBound) {
		return sigmoid(x)
	}
	f := (x + sigmoidBound) * sigmoidScale
	// x just below sigmoidBound can round f up to sigmoidSteps; the
	// clamp keeps k+1 in the table (frac is then 1, giving the last entry).
	k := min(uint(f), sigmoidSteps-1)
	frac := f - float64(k)
	lo, hi := sigmoidTable[k], sigmoidTable[k+1]
	return lo + frac*(hi-lo)
}
