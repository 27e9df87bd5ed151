// Package skipgram implements the skip-gram objective (Equation 3) used
// by the paper's single-view algorithm and by the walk-based baselines.
// Context selection follows Definition 6: window 1 on homo-views and
// window 2 on heter-views. Two estimators of the softmax are provided:
// negative sampling (default, word2vec-style) and hierarchical softmax
// (matching the log₂ μ term of Theorem 1).
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
//
// All element-level access to the shared In/Out tables goes through the
// two go:norace leaf helpers below (hogwildPairUpdate, applyRowGrad): in
// the Hogwild mode of TrainCorpusParallel several shards apply updates
// to the tables concurrently without synchronization, exactly like the
// original word2vec trainer. Those element races are intentional and
// benign on platforms with atomic aligned 64-bit stores (amd64, arm64):
// a lost update costs one stochastic gradient step, never a torn value.
// The race-detector exemption is confined to exactly those leaves (and
// the cross-view gather/scatter in internal/transn) so the surrounding
// pool, sharding and phase-barrier logic remains fully instrumented —
// `go test -race` still proves the pipeline has no unintended races.
// go:norace covers only the annotated body (not callees or closures), so
// the helpers inline their dot products instead of calling mat.Dot, and
// go:noinline stops an instrumented caller from absorbing them.
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
// it clears before use. trainCorpus owns one buffer per shard, so under
// Hogwild each buffer stays goroutine-local and a pass allocates nothing
// per pair.
//
// The loss Σ −log pᵢ over the positive and the sampled negatives is
// computed as −log ∏pᵢ: one math.Log per pair instead of one per update.
// With many negatives and saturated scores the product could underflow,
// so it is folded into the loss early (see foldBelow). A NaN score makes
// the product, and so the loss, NaN, which the trainer's finite guard
// (transn/finite.go) reports.
//
//lint:alloc-free SGNS per-pair hot path, pinned by TestTrainCorpusAllocsConstant
func (m *Model) trainPair(center, context, neg int, lr float64, s *NegSampler, rng *rand.Rand, grad []float64) float64 {
	in := m.In.Row(center)
	clear(grad)
	var loss float64
	prod := hogwildPairUpdate(in, m.Out.Row(context), grad, 1, lr)
	for k := 0; k < neg; k++ {
		n := s.Draw(rng)
		for tries := 0; n == context && tries < 4; tries++ {
			n = s.Draw(rng)
		}
		if n == context {
			continue
		}
		prod *= hogwildPairUpdate(in, m.Out.Row(n), grad, 0, lr)
		if prod < foldBelow {
			loss -= math.Log(prod)
			prod = 1
		}
	}
	applyRowGrad(in, grad)
	return loss - math.Log(prod)
}

// hogwildPairUpdate scores one (center, target) pair against label,
// updates the target's output row in place, and accumulates the center
// gradient into grad (applied once per pair by applyRowGrad). It returns
// the clamped probability the model gives the label, max(score, 1e-10)
// for a positive and max(1−score, 1e-10) for a negative; trainPair turns
// the product of these into the pair loss. grad and the return value are
// goroutine-local; only in (read) and out (read/write) are shared. See
// the Hogwild contract on TrainPair.
//
// out and grad are re-sliced to len(in) so the compiler drops the bounds
// checks in both loops. The single-accumulator dot and the per-element
// update order are what the embeddings' bit patterns depend on.
//
//lint:finite-checked pair losses roll up into the iteration mean swept by the trainer's guard (transn/finite.go)
//lint:alloc-free SGNS per-update leaf, pinned by TestTrainCorpusAllocsConstant
//go:norace
//go:noinline
func hogwildPairUpdate(in, out, grad []float64, label, lr float64) float64 {
	out = out[:len(in)]
	grad = grad[:len(in)]
	var dot float64
	for i := range in {
		dot += in[i] * out[i]
	}
	score := sigmoid(dot)
	g := (score - label) * lr
	for i := range in {
		grad[i] += g * out[i]
		out[i] -= g * in[i]
	}
	if label == 1 {
		return math.Max(score, 1e-10)
	}
	return math.Max(1-score, 1e-10)
}

// applyRowGrad subtracts the accumulated center gradient from the shared
// input row. See the Hogwild contract on TrainPair.
//
//lint:finite-checked the written rows are sampled by the trainer's per-iteration guard (transn/finite.go)
//lint:alloc-free SGNS per-pair leaf, pinned by TestTrainCorpusAllocsConstant
//go:norace
//go:noinline
func applyRowGrad(in, grad []float64) {
	grad = grad[:len(in)]
	for i := range in {
		in[i] -= grad[i]
	}
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
// TrainCorpusParallel runs its own trainCorpus, so buffers are never
// shared between goroutines.
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

// TrainCorpusParallel runs one SGNS pass with the corpus partitioned
// into `workers` contiguous shards, shard s training under the private
// RNG stream rngstream(seed, s). Two update disciplines are provided:
//
//   - Hogwild (deterministic=false, the default for training): shards
//     run concurrently on the worker pool and apply unsynchronized
//     updates to the shared In/Out tables, word2vec-style. Lock-free
//     and near-linear in workers, but nondeterministic for workers > 1
//     because shard interleaving varies run to run. See TrainPair for
//     why this is race-clean by construction.
//
//   - Deterministic sharded apply (deterministic=true): the same shard
//     partition and RNG streams, but shards are applied serially in
//     shard order. Byte-reproducible for a fixed (seed, workers) at the
//     cost of serializing the skip-gram updates; walk generation
//     upstream still parallelizes. Used by the determinism test suite
//     and by callers that need reproducible embeddings (experiments,
//     regression baselines).
//
// With workers <= 1 both modes reduce to TrainCorpus under stream
// (seed, 0) — the serial path. The negative sampler is shared and
// read-only. The returned loss is the mean pair loss across all shards;
// under Hogwild it is itself subject to the benign read races and may
// vary in the last bits between runs.
func (m *Model) TrainCorpusParallel(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, seed int64, workers int, deterministic bool) float64 {
	loss, _, _ := m.TrainCorpusParallelStats(paths, offsets, neg, lr, s, seed, workers, deterministic)
	return loss
}

// TrainCorpusParallelStats is TrainCorpusParallel plus the counters the
// telemetry layer reports: the number of (center, context) training
// pairs the pass applied — the throughput unit behind examples/sec —
// and the worker-pool timing breakdown. Shard losses and pair counts
// are accumulated shard-locally and merged here, after the barrier, so
// nothing is added to the Hogwild hot path. The embedding updates are
// identical to TrainCorpusParallel's for the same arguments.
func (m *Model) TrainCorpusParallelStats(paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, seed int64, workers int, deterministic bool) (float64, int, par.Stats) {
	if workers <= 1 || len(paths) <= 1 {
		var loss float64
		var pairs int
		st := par.RunTimed(1, 1, func(int) {
			loss, pairs = m.trainCorpus(paths, offsets, neg, lr, s, rngstream.New(seed, 0))
		})
		if pairs == 0 {
			return 0, 0, st
		}
		return loss / float64(pairs), pairs, st
	}
	shards := workers
	if shards > len(paths) {
		shards = len(paths)
	}
	losses := make([]float64, shards)
	counts := make([]int, shards)
	train := func(sh int) {
		lo := sh * len(paths) / shards
		hi := (sh + 1) * len(paths) / shards
		losses[sh], counts[sh] = m.trainCorpus(paths[lo:hi], offsets, neg, lr, s, rngstream.New(seed, int64(sh)))
	}
	var st par.Stats
	if deterministic {
		st = par.RunTimed(1, shards, train)
	} else {
		st = par.RunTimed(workers, shards, train)
	}
	var loss float64
	var pairs int
	for sh := range losses {
		loss += losses[sh]
		pairs += counts[sh]
	}
	if pairs == 0 {
		return 0, 0, st
	}
	return loss / float64(pairs), pairs, st
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
