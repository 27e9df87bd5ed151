// Package skipgram implements the skip-gram objective (Equation 3) used
// by the paper's single-view algorithm and by the walk-based baselines.
// Context selection follows Definition 6: window 1 on homo-views and
// window 2 on heter-views. The softmax is estimated by negative
// sampling (word2vec-style, unigram^0.75 table).
package skipgram

import (
	"math"
	"math/rand"

	"transn/internal/mat"
	"transn/internal/par"
	"transn/internal/rngstream"
	"transn/internal/walk"
)

// Model holds input (node) and output (context) embedding tables. In is
// the embedding users read out; Out exists only during training.
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

// Draw samples one negative node index.
func (s *NegSampler) Draw(rng *rand.Rand) int { return s.alias.Draw(rng) }

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
// pair is pushed together, neg sampled negatives are pushed apart. The
// binary cross-entropy loss of the update is returned. Negatives equal to
// the true context are re-drawn a bounded number of times.
//
// TrainPair allocates its own d-length center-gradient buffer per call;
// it serves callers that train edge by edge (the LINE baseline). Corpus
// passes call trainPair with one buffer per shard instead.
func (m *Model) TrainPair(center, context, neg int, lr float64, s *NegSampler, rng *rand.Rand) float64 {
	return m.trainPair(center, context, neg, lr, s, rng, make([]float64, m.In.C))
}

// foldBelow bounds the running probability product in trainPair. Every
// factor is at least 1e-10, so folding the product into the loss as soon
// as it drops below 1e-280 keeps it at or above 1e-290, inside the normal
// float64 range: no underflow to zero and no subnormal precision loss,
// whatever the negative count.
const foldBelow = 1e-280

// trainPair is TrainPair with a caller-owned d-length grad buffer, which
// it clears before use. trainCorpus owns one buffer per shard, so a pass
// allocates nothing per pair.
//
// The loss Σ −log pᵢ over the positive and the sampled negatives is
// computed as −log ∏pᵢ: one math.Log per pair instead of one per update.
// With many negatives and saturated scores the product could underflow,
// so it is folded into the loss early (see foldBelow). A NaN score makes
// the product, and so the loss, NaN, which the trainer's finite guard
// (transn/finite.go) reports.
//
// Allocation-free; pinned by TestTrainCorpusAllocsConstant.
func (m *Model) trainPair(center, context, neg int, lr float64, s *NegSampler, rng *rand.Rand, grad []float64) float64 {
	in := m.In.Row(center)
	clear(grad)
	var loss float64
	prod := pairUpdate(in, m.Out.Row(context), grad, 1, lr)
	for k := 0; k < neg; k++ {
		n := s.Draw(rng)
		for tries := 0; n == context && tries < 4; tries++ {
			n = s.Draw(rng)
		}
		if n == context {
			continue
		}
		prod *= pairUpdate(in, m.Out.Row(n), grad, 0, lr)
		if prod < foldBelow {
			loss -= math.Log(prod)
			prod = 1
		}
	}
	applyRowGrad(in, grad)
	return loss - math.Log(prod)
}

// pairUpdate scores one (center, target) pair against label, updates
// the target's output row in place, and accumulates the center gradient
// into grad (applied once per pair by applyRowGrad). It returns the
// clamped probability the model gives the label, max(score, 1e-10) for
// a positive and max(1−score, 1e-10) for a negative; trainPair turns
// the product of these into the pair loss.
//
// The score is mat.Dot through the interpolated sigmoid table; the two
// updates are mat.Axpy calls, the gradient first so it reads the
// target row before the row moves.
//
// Allocation-free; pinned by TestTrainCorpusAllocsConstant.
func pairUpdate(in, out, grad []float64, label, lr float64) float64 {
	score := tableSigmoid(mat.Dot(in, out))
	g := (score - label) * lr
	mat.Axpy(g, out, grad)
	mat.Axpy(-g, in, out)
	p := score
	if label != 1 {
		p = 1 - score
	}
	// Not math.Max: on amd64 that is an assembly call the compiler
	// cannot inline. The comparison clamps identically and lets a NaN
	// through.
	if p < 1e-10 {
		p = 1e-10
	}
	return p
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
// It owns the pass's one center-gradient buffer; each shard of
// TrainCorpusParallelStats runs its own trainCorpus.
func (m *Model) trainCorpus(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) (float64, int) {
	grad := make([]float64, m.In.C)
	var loss float64
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
				loss += m.trainPair(center, p[j], neg, lr, s, rng, grad)
				pairs++
			}
		}
	}
	return loss, pairs
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
