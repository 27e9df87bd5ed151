// Package lint is the repo's custom static-analysis engine: it loads
// the whole module through go/parser + go/types (stdlib only, like the
// rest of the repo) and runs five analyzers that machine-check the
// repo's conventions:
//
//   - determinism (determinism.go): no global math/rand calls, no
//     time-derived seeds, and no order-sensitive iteration over maps —
//     the failure class that silently breaks training's byte-identity
//     contract and Algorithm 1 reproducibility.
//   - schema-registry consistency (schema.go): metric names, span
//     names, event stages/levels and finding codes are the declared
//     constants, never drifting string literals.
//   - doccheck (doccheck.go): every exported top-level symbol and every
//     package carries a doc comment — the source-level half of the
//     documented public API surface (API.md is the HTTP half).
//   - goroutine-lifecycle (lifecycle.go): `go` statements in the
//     long-lived packages lead to stoppable loops, and every
//     time.NewTicker/NewTimer has a matching Stop.
//   - lock-order (lockorder.go): the static mutex acquisition graph is
//     acyclic, every lock is released (or defer-released) on every
//     return/panic path, and no code calls a raw sync/atomic function.
//
// Finite weights and allocation-free hot loops are not analyzers: the
// run-time guard (transn's guardIteration/CheckFinite) and the
// AllocsPerRun tests pin them by running the code.
//
// Findings carry stable codes and are reported as a schema-stable
// transn.lint/v1 JSON document, mirroring the obs/diag report
// conventions (Validate, checkreport dispatch). `//lint:ignore CODE
// reason` suppresses a finding on the same or next line; suppressions
// are themselves audited — an unused one is a finding.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schema identifies the JSON lint document layout. Consumers (CI's
// transnlint job, `transn checkreport`) match on this string; any
// breaking change to the document shape must bump the version suffix.
// The schema is append-only within a version.
const Schema = "transn.lint/v1"

// Finding codes are stable identifiers — tooling and //lint:ignore
// comments match on them, so renaming one is a schema break.
const (
	// CodeGlobalRand: a call to a math/rand package-level function
	// (global source) on the deterministic training path; streams must
	// come from internal/rngstream.
	CodeGlobalRand = "determinism.global-rand"
	// CodeTimeSeed: a seed derived from the wall clock (time.Now
	// flowing into rand.NewSource / rngstream.New / rngstream.Derive).
	CodeTimeSeed = "determinism.time-seed"
	// CodeMapOrder: order-sensitive iteration over a map (appending to
	// a slice, printing, sending, or float accumulation inside the
	// range body) — output order and float sums change run to run.
	// Iterating a sorted key slice (internal/ordered.Keys) is the
	// sanctioned escape hatch.
	CodeMapOrder = "determinism.map-order"

	// CodeSchemaMetric: a constant metric name at a Registry call site
	// (or report map index) that is not a declared obs Metric* constant.
	CodeSchemaMetric = "schema.metric-name"
	// CodeSchemaSpan: a constant span name passed to Tracer.Start that
	// is not a declared obs Span* constant or Stage value.
	CodeSchemaSpan = "schema.span-name"
	// CodeSchemaStage: a constant obs.TrainEvent Stage value outside
	// the declared Stage constant set.
	CodeSchemaStage = "schema.event-stage"
	// CodeSchemaLevel: a constant obs.TrainEvent Level value outside
	// the declared Level* constant set.
	CodeSchemaLevel = "schema.event-level"
	// CodeSchemaFindingCode: a constant diag.Finding Code outside the
	// declared Code* constant set.
	CodeSchemaFindingCode = "schema.finding-code"
	// CodeSchemaTraceStage: a constant stage name passed to
	// ReqTrace.StartStage/EndStage that is not a declared obs
	// TraceStage constant — the transn.trace.serve/v1 stage vocabulary.
	CodeSchemaTraceStage = "schema.trace-stage"
	// CodeSchemaLogKey: a constant attribute key handed to a log/slog
	// attr constructor that is not a declared obs LogKey* constant (or
	// TraceStage value) — structured-log field names are a published
	// schema consumers grep and parse.
	CodeSchemaLogKey = "schema.log-key"
	// CodeSchemaWatchCode: a constant obs.WatchEvent Code outside the
	// declared WatchCode* constant set — the SLO watchdog's rule-code
	// vocabulary ships in WARN logs and anomaly bundles.
	CodeSchemaWatchCode = "schema.watch-code"

	// CodeDocMissing: an exported top-level symbol (or a package clause)
	// without a doc comment — the public API surface stays documented,
	// API.md-style, at the source level.
	CodeDocMissing = "doc.missing"

	// CodeLifecycleLeak: a goroutine launched in a long-lived package
	// whose body spins an unbounded background loop with no stop path —
	// no receive from a done/ctx channel and no return/break — so the
	// goroutine outlives its owner (the bug class the History/Watchdog
	// clean-stop tests guard dynamically).
	CodeLifecycleLeak = "lifecycle.goroutine-leak"
	// CodeLifecycleTicker: a time.NewTicker/time.NewTimer whose Stop is
	// unreachable — the runtime timer (and anything its callback chain
	// retains) leaks until process exit.
	CodeLifecycleTicker = "lifecycle.ticker-stop"

	// CodeLockCycle: the static mutex acquisition graph contains a
	// cycle (lock A held while taking B in one place, B held while
	// taking A in another) — a potential deadlock under concurrency.
	CodeLockCycle = "lock.cycle"
	// CodeLockUnbalanced: a mutex locked on some path that can return
	// (or fall off the end of the function) without the matching unlock
	// and with no deferred unlock covering it.
	CodeLockUnbalanced = "lock.unbalanced"
	// CodeLockRawAtomic: a call to a raw sync/atomic package-level
	// function (atomic.AddInt64(&x, 1) style). Shared atomics use the
	// typed wrappers, which cannot be read plainly by mistake and carry
	// their own 64-bit alignment.
	CodeLockRawAtomic = "lock.raw-atomic"

	// CodeUnusedSuppression: a //lint:ignore comment that suppressed
	// nothing — stale suppressions hide future regressions.
	CodeUnusedSuppression = "lint.unused-suppression"
	// CodeBadDirective: a malformed //lint: comment (a verb other than
	// ignore, or an ignore without a code or reason).
	CodeBadDirective = "lint.bad-directive"
)

// Finding is one analyzer verdict, positioned at file:line:col relative
// to the linted module root.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Code     string `json:"code"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the file:line:col [code] message form
// the CLI prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Code, f.Message)
}

// Document is the schema-stable lint report. Required fields (validated
// by Validate): schema, name, clean, packages, findings. Clean mirrors
// diag's Healthy: true iff findings is empty.
type Document struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Clean is true iff Findings is empty (recomputed by Finalize).
	Clean bool `json:"clean"`
	// Packages counts the module packages loaded and analyzed.
	Packages int `json:"packages"`
	// Suppressions counts the //lint:ignore comments that matched (and
	// silenced) a finding — the audited escape-hatch usage.
	Suppressions int `json:"suppressions,omitempty"`
	// Analyzers counts the analyzers that ran — the suite-growth
	// header future PRs read to see the suite expanding.
	Analyzers int `json:"analyzers,omitempty"`
	// ElapsedMS is the whole-repo wall-clock runtime of the suite in
	// milliseconds (load + all analyzers), recorded by Run.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`

	Findings []Finding `json:"findings"`
}

// Finalize sorts findings by position and recomputes Clean. Write calls
// it automatically.
func (d *Document) Finalize() {
	sort.Slice(d.Findings, func(i, j int) bool {
		a, b := d.Findings[i], d.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
	d.Clean = len(d.Findings) == 0
}

// Err returns nil for a clean document, or an error naming the first
// finding and the total count — the CLI exit verdict.
func (d *Document) Err() error {
	if len(d.Findings) == 0 {
		return nil
	}
	return fmt.Errorf("lint found %d finding(s), first: %s", len(d.Findings), d.Findings[0])
}

// Write writes the document as indented JSON with a trailing newline —
// the exact bytes `transnlint -json` emits and CI validates.
func Write(w io.Writer, d *Document) error {
	d.Finalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Validate checks that data is a well-formed lint document: valid JSON,
// the expected schema string, required fields with the right types,
// findings with non-empty codes and positions, and a Clean flag
// consistent with the findings. Unknown extra fields are allowed (the
// schema is append-only within a version). It is the lint mirror of
// obs.ValidateReport and diag.Validate.
func Validate(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("lint document is not valid JSON: %w", err)
	}
	req := func(key string, dst any) error {
		msg, ok := raw[key]
		if !ok {
			return fmt.Errorf("lint document is missing required field %q", key)
		}
		if err := json.Unmarshal(msg, dst); err != nil {
			return fmt.Errorf("field %q: %w", key, err)
		}
		return nil
	}
	var schema string
	if err := req("schema", &schema); err != nil {
		return err
	}
	if schema != Schema {
		return fmt.Errorf("lint schema %q, want %q", schema, Schema)
	}
	var name string
	if err := req("name", &name); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("lint document name is empty")
	}
	var clean bool
	if err := req("clean", &clean); err != nil {
		return err
	}
	var packages int
	if err := req("packages", &packages); err != nil {
		return err
	}
	if packages < 0 {
		return fmt.Errorf("packages is negative: %d", packages)
	}
	// Optional header fields (append-only additions within v1): when
	// present they must be well-typed and non-negative.
	opt := func(key string) (int64, error) {
		msg, ok := raw[key]
		if !ok {
			return 0, nil
		}
		var v int64
		if err := json.Unmarshal(msg, &v); err != nil {
			return 0, fmt.Errorf("field %q: %w", key, err)
		}
		if v < 0 {
			return 0, fmt.Errorf("%s is negative: %d", key, v)
		}
		return v, nil
	}
	if _, err := opt("analyzers"); err != nil {
		return err
	}
	if _, err := opt("elapsed_ms"); err != nil {
		return err
	}
	var findings []Finding
	if err := req("findings", &findings); err != nil {
		return err
	}
	for i, f := range findings {
		if f.Code == "" {
			return fmt.Errorf("finding %d has an empty code", i)
		}
		if f.Analyzer == "" {
			return fmt.Errorf("finding %d [%s] has an empty analyzer", i, f.Code)
		}
		if f.Message == "" {
			return fmt.Errorf("finding %d [%s] has an empty message", i, f.Code)
		}
		if f.File == "" || f.Line <= 0 {
			return fmt.Errorf("finding %d [%s] has no position", i, f.Code)
		}
	}
	if clean == (len(findings) > 0) {
		return fmt.Errorf("clean=%v contradicts findings (count %d)", clean, len(findings))
	}
	return nil
}
