package obs

// Stage labels the phase of Algorithm 1 an event or span belongs to.
// The string values are part of the report schema — do not renumber or
// rename without bumping ReportSchema.
type Stage string

const (
	// StageWalk is per-view walk-corpus generation (Algorithm 1 line 4).
	StageWalk Stage = "walk"
	// StageSkipGram is a per-view skip-gram pass (lines 5–7).
	StageSkipGram Stage = "skipgram"
	// StageCrossPair is one cross-view pair step (lines 8–12).
	StageCrossPair Stage = "cross_pair"
	// StageIteration closes one outer iteration with the iteration-mean
	// losses — the loss-curve event.
	StageIteration Stage = "iteration"
	// StageDiagnostic marks a synthesized health event: the trainer's
	// non-finite guard and internal/diag's convergence monitor emit these
	// alongside (never instead of) the regular stage stream. Level and
	// Message carry the verdict; losses and Examples are zero.
	StageDiagnostic Stage = "diagnostic"
)

// Severity levels of StageDiagnostic events.
const (
	// LevelInfo marks an advisory observation (e.g. a loss plateau).
	LevelInfo = "info"
	// LevelWarning marks a health problem the run can still continue
	// from being reported (e.g. divergence, a non-finite loss).
	LevelWarning = "warning"
)

// TrainEvent is one entry of the typed training event stream, delivered
// through transn's Config.Observer callback. Numeric identity fields
// (Stage, View, Pair, Epoch), losses and Examples are deterministic for
// a fixed Seed and Workers; timing fields
// (DurationSeconds, ExamplesPerSec) never are — comparisons should use
// Key()-style projections. View and Pair are -1 when not applicable.
type TrainEvent struct {
	Stage Stage `json:"stage"`
	View  int   `json:"view"`
	Pair  int   `json:"pair"`
	Epoch int   `json:"epoch"`

	// LSingle is the mean skip-gram pair loss (StageSkipGram: this
	// view's pass; StageIteration: mean across views).
	LSingle float64 `json:"l_single"`
	// LCross is the mean cross-view segment loss (StageCrossPair: this
	// pair's step; StageIteration: mean across pairs), the sum of the
	// translation (Eqs. 11–12) and reconstruction (Eqs. 13–14)
	// components below.
	LCross          float64 `json:"l_cross"`
	LTranslation    float64 `json:"l_translation"`
	LReconstruction float64 `json:"l_reconstruction"`

	// Examples counts the stage's work items: walks generated
	// (StageWalk), skip-gram training pairs (StageSkipGram), common-node
	// segments (StageCrossPair), or the iteration total (StageIteration).
	Examples int `json:"examples"`

	DurationSeconds float64 `json:"duration_seconds"`
	ExamplesPerSec  float64 `json:"examples_per_sec"`

	// Level and Message are set only on StageDiagnostic events (the
	// schema is append-only within a version, so their addition does not
	// bump ReportSchema). Level is LevelInfo or LevelWarning.
	Level   string `json:"level,omitempty"`
	Message string `json:"message,omitempty"`
}

// Deterministic returns the event with its timing fields zeroed: the
// projection that is reproducible for a fixed Seed and Workers. The
// determinism test suite compares streams of these.
func (e TrainEvent) Deterministic() TrainEvent {
	e.DurationSeconds = 0
	e.ExamplesPerSec = 0
	return e
}
