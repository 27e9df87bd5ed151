// Package transn implements the paper's TransN framework (Section III):
// view separation, the single-view skip-gram algorithm over biased
// correlated random walks, and the cross-view dual-learning algorithm
// that translates node embeddings between views with stacks of
// self-attention + feed-forward encoders. Algorithm 1 interleaves both
// per iteration; the final embedding of a node is the average of its
// view-specific embeddings.
package transn

import (
	"fmt"
	"runtime"

	"transn/internal/obs"
)

// CrossLoss selects how translation/reconstruction similarity is scored.
type CrossLoss int

const (
	// LossMSE scores similarity as mean squared error between translated
	// and target matrices. This is the default: it implements the stated
	// goal of Eqs. 11–14 ("the translated matrix is similar to the
	// target") with a well-posed optimum. See DESIGN.md §2.
	LossMSE CrossLoss = iota
	// LossInnerProduct is the literal Eq. 11–14 objective: the mean
	// elementwise product of the two matrices, following the paper's
	// footnote that "the inner product value of two vectors is low when
	// they are similar". Kept for ablation; unbounded below, so pair it
	// with small iteration counts.
	LossInnerProduct
)

// Config holds TransN hyperparameters. Zero values are replaced by
// defaults from the paper (Section IV-A3) scaled to laptop-size inputs.
type Config struct {
	// Dim is the embedding dimensionality d (paper: 128).
	Dim int
	// WalkLength is the single-view walk length ρ (paper: 80).
	WalkLength int
	// MinWalksPerNode / MaxWalksPerNode bound the per-node path count
	// max(min(degree, Max), Min) (paper: 10 / 32).
	MinWalksPerNode int
	MaxWalksPerNode int
	// Iterations is K, the outer loop count of Algorithm 1.
	Iterations int
	// NegativeSamples per positive pair in the single-view estimator.
	NegativeSamples int
	// LRSingle is γ_single (paper initial rate: 0.025).
	LRSingle float64
	// LRCross is γ_cross for embeddings updated by the cross-view
	// algorithm; translator parameters use Adam at the same rate.
	LRCross float64
	// Encoders is H, the number of (self-attention, feed-forward)
	// encoder blocks per translator (paper: 6).
	Encoders int
	// CrossPathLen is the fixed length of common-node paths fed to
	// translators. The paper's W ∈ R^{|λ|×|λ|} requires a fixed |λ|;
	// filtered paths are cut into segments of exactly this length.
	CrossPathLen int
	// CrossPathsPerPair is T, the number of path pairs sampled per
	// view-pair per iteration.
	CrossPathsPerPair int
	// Loss selects the cross-view similarity objective.
	Loss CrossLoss
	// Seed drives all randomness. The same (Seed, Workers) reproduces
	// the same embeddings exactly — see the concurrency model in
	// DESIGN.md §6.
	Seed int64
	// Workers bounds training concurrency: up to this many views run
	// their single-view steps at once, and each view shards its walk
	// generation across this many goroutines. It also sets the number
	// of skip-gram shards per view, which apply in shard order. 0 means
	// runtime.NumCPU(); 1 means fully serial. Every shard owns a
	// private RNG stream derived as (Seed, kind, view/pair, shard[,
	// iteration]) — see internal/rngstream.
	Workers int
	// DeterministicApply is always true after defaulting: the
	// deterministic sharded apply is the only way Train runs.
	//
	// Deprecated: setting it has no effect.
	DeterministicApply bool

	// Ablation switches (Table V).
	NoCrossView      bool // TransN-Without-Cross-View
	SimpleWalk       bool // TransN-With-Simple-Walk
	SimpleTranslator bool // TransN-With-Simple-Translator
	NoTranslation    bool // TransN-Without-Translation-Tasks
	NoReconstruction bool // TransN-Without-Reconstruction-Tasks

	// Observer, when non-nil, receives a TrainEvent at every stage
	// boundary of Algorithm 1: one per walk corpus, per skip-gram pass,
	// per cross-view pair step, and one loss-curve event per iteration.
	// Calls are serialized by the model (the callback is never invoked
	// concurrently), and the stream order — and every non-timing field
	// — is reproducible for a fixed Seed and Workers (compare
	// TrainEvent.Deterministic projections): within an iteration, each
	// view's walk and skip-gram events in view order, then the pair
	// events in pair order, then the iteration event.
	// The callback runs inline with training: keep it cheap or hand off
	// to a channel. Not stored in model files (functions have no wire
	// form).
	Observer func(obs.TrainEvent)
	// ModelReady, when non-nil, is called exactly once — synchronously,
	// after initialization, before the first iteration — with the model
	// Train will return. It hands live-inspection tooling (diagnostics
	// endpoints, tests) a handle to the in-training model; Report and
	// FinalLosses are safe to call on it concurrently with training,
	// everything else must wait for Train to return. Not stored in
	// model files.
	ModelReady func(*Model)
	// Telemetry, when non-nil, collects this run's metrics: stage spans
	// with worker attribution, counters (walks, skip-gram pairs,
	// cross-view segments), loss gauges, a cross-segment loss histogram,
	// and per-worker busy/idle time. Use obs.NewRun, then read the
	// results via Model.Report or Telemetry.ServeDebug (pprof +
	// /metrics). Nil disables collection; the training hot path then
	// reduces to per-stage nil checks (see DESIGN.md §7). Not stored in
	// model files.
	Telemetry *obs.Run
}

// DefaultConfig returns the paper's hyperparameters scaled for synthetic
// laptop-size networks: d=64, ρ=40, H=2 encoders, 5 iterations.
func DefaultConfig() Config {
	return Config{
		Dim:               64,
		WalkLength:        40,
		MinWalksPerNode:   10,
		MaxWalksPerNode:   32,
		Iterations:        5,
		NegativeSamples:   5,
		LRSingle:          0.025,
		LRCross:           0.025,
		Encoders:          2,
		CrossPathLen:      8,
		CrossPathsPerPair: 200,
		Seed:              1,
	}
}

// PaperConfig returns the unscaled hyperparameters of Section IV-A3:
// d=128, ρ=80, H=6. Expensive; provided for completeness.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Dim = 128
	c.WalkLength = 80
	c.Encoders = 6
	c.Iterations = 10
	return c
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dim == 0 {
		c.Dim = d.Dim
	}
	if c.WalkLength == 0 {
		c.WalkLength = d.WalkLength
	}
	if c.MinWalksPerNode == 0 {
		c.MinWalksPerNode = d.MinWalksPerNode
	}
	if c.MaxWalksPerNode == 0 {
		c.MaxWalksPerNode = d.MaxWalksPerNode
	}
	if c.Iterations == 0 {
		c.Iterations = d.Iterations
	}
	if c.NegativeSamples == 0 {
		c.NegativeSamples = d.NegativeSamples
	}
	if c.LRSingle == 0 {
		c.LRSingle = d.LRSingle
	}
	if c.LRCross == 0 {
		c.LRCross = d.LRCross
	}
	if c.Encoders == 0 {
		c.Encoders = d.Encoders
	}
	if c.CrossPathLen == 0 {
		c.CrossPathLen = d.CrossPathLen
	}
	if c.CrossPathsPerPair == 0 {
		c.CrossPathsPerPair = d.CrossPathsPerPair
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	c.DeterministicApply = true
	return c
}

// Validate rejects configurations that cannot train.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("transn: Dim must be positive, got %d", c.Dim)
	}
	if c.WalkLength < 2 {
		return fmt.Errorf("transn: WalkLength must be at least 2, got %d", c.WalkLength)
	}
	if c.CrossPathLen < 2 {
		return fmt.Errorf("transn: CrossPathLen must be at least 2, got %d", c.CrossPathLen)
	}
	if c.Encoders < 1 {
		return fmt.Errorf("transn: Encoders must be positive, got %d", c.Encoders)
	}
	if c.Workers < 0 {
		return fmt.Errorf("transn: Workers must be non-negative, got %d", c.Workers)
	}
	if c.MinWalksPerNode > c.MaxWalksPerNode {
		return fmt.Errorf("transn: MinWalksPerNode %d > MaxWalksPerNode %d",
			c.MinWalksPerNode, c.MaxWalksPerNode)
	}
	if c.NoTranslation && c.NoReconstruction && !c.NoCrossView {
		return fmt.Errorf("transn: disabling both cross-view tasks leaves nothing to train; set NoCrossView instead")
	}
	return nil
}
