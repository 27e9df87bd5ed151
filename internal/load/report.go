package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"transn/internal/obs"
	"transn/internal/ordered"
)

// BenchSchema identifies the load harness's JSON report layout.
// Consumers (CI's transnload-smoke job, `transn checkreport`, trend
// tooling) match on this string; any breaking change to the shape must
// bump the version suffix.
const BenchSchema = "transn.bench.serve/v1"

// EndpointStats is the per-endpoint section of the report: request
// accounting plus latency quantiles interpolated from the endpoint's
// histogram. Latencies are measured from each request's *scheduled*
// arrival instant, so queueing delay behind a slow server is included
// (see the package comment on coordinated omission).
type EndpointStats struct {
	// Sent counts requests dispatched in the measured window.
	Sent int64 `json:"sent"`
	// OK counts 2xx responses among Sent.
	OK int64 `json:"ok"`
	// Errors counts everything else: non-2xx envelopes and transport
	// failures. Per-code detail is in Report.ErrorsByCode.
	Errors int64 `json:"errors"`
	// P50/P90/P99Seconds are interpolated quantile estimates from the
	// latency histogram (obs.HistSnapshot.Quantile). Zero when Sent is 0.
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// MaxSeconds is the exact maximum observed latency (not estimated).
	// An interpolated P99 may legitimately exceed it — quantile
	// estimates land anywhere inside their bucket — so validators must
	// not compare the two.
	MaxSeconds float64 `json:"max_seconds"`
	// MeanSeconds is the exact mean latency over Sent requests.
	MeanSeconds float64 `json:"mean_seconds"`
	// Histogram is the full latency distribution the quantiles were
	// derived from, for offline re-analysis at other quantiles.
	Histogram obs.HistSnapshot `json:"histogram"`
}

// ServerStats is the server-side telemetry delta scraped from the
// target's /metrics endpoint (obs run report) before and after the
// measured window. All fields are window deltas, not absolutes, so the
// report reads the same against a fresh or a long-running server.
type ServerStats struct {
	// Requests is the server's own request count over the window.
	Requests int64 `json:"requests"`
	// Errors is the server's error-response count over the window.
	Errors int64 `json:"errors"`
	// CacheHits and CacheMisses count translate lookups in the server's
	// row table; the hit rate is CacheHits/(CacheHits+CacheMisses).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Coalesced is always 0: the server has no request coalescer.
	// The field stays because transn.bench.serve/v1 is frozen with it
	// (BENCH_trajectory holds documents that carry it).
	Coalesced int64 `json:"coalesced"`
	// Reloads is the server's snapshot-reload count over the window
	// (the harness's own mid-run reloads land here).
	Reloads int64 `json:"reloads"`
	// CacheHitRate is CacheHits/(CacheHits+CacheMisses), 0 when no
	// cache traffic occurred.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Report is the schema-stable result of one load run.
type Report struct {
	// Schema is always BenchSchema.
	Schema string `json:"schema"`
	// Name labels the run (profile name or "-name" flag).
	Name string `json:"name"`
	// Target is the base URL the harness drove.
	Target string `json:"target"`
	// Seed is the workload seed; two runs with equal Seed, Mix, Rate
	// and Duration offer byte-identical request streams.
	Seed int64 `json:"seed"`
	// Mix is the endpoint distribution in flag syntax.
	Mix string `json:"mix"`

	// OfferedRate is the configured open-loop arrival rate (req/s);
	// AchievedRate is completions inside the measured window divided by
	// its duration. A healthy server keeps the two close; achieved
	// falling below offered is the signature of saturation.
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`

	// WarmupSeconds and DurationSeconds are the excluded warmup and the
	// measured window lengths.
	WarmupSeconds   float64 `json:"warmup_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`

	// Sent/OK/Errors aggregate the per-endpoint counts.
	Sent   int64 `json:"sent"`
	OK     int64 `json:"ok"`
	Errors int64 `json:"errors"`
	// ErrorRate is Errors/Sent, 0 when nothing was sent.
	ErrorRate float64 `json:"error_rate"`

	// Endpoints maps endpoint name → stats; only endpoints with mix
	// weight appear.
	Endpoints map[string]EndpointStats `json:"endpoints"`

	// ErrorsByCode counts non-2xx responses by their transn.serve/v1
	// envelope code ("timeout", "not_ready", ...). Transport-level
	// failures (connection refused, malformed body) count under
	// "transport". Empty on clean runs.
	ErrorsByCode map[string]int64 `json:"errors_by_code,omitempty"`

	// Reloads is how many mid-run /admin/reload requests the harness
	// issued; ReloadsOK how many returned 200.
	Reloads   int `json:"reloads"`
	ReloadsOK int `json:"reloads_ok"`

	// Server is the /metrics delta over the window; nil when the scrape
	// failed (the run still reports client-side numbers).
	Server *ServerStats `json:"server,omitempty"`

	// Tail is the slowest-N client observations joined against the
	// server's trace rings, with per-stage attribution. Nil when
	// nothing was measured; present with Joined == 0 when the server
	// kept no traces (tracing disabled or the run's IDs aged out of the
	// rings).
	Tail *TailStats `json:"tail,omitempty"`

	// History is the server's /debug/history flight-recorder dump
	// fetched right after the measured window: the run's rate, p99 and
	// hit-rate *curves*, not just end-of-run scalars, so a latency
	// excursion mid-run is visible in the committed BENCH_serve.json.
	// Nil when the fetch failed (recorder disabled, old server).
	History *obs.HistoryDump `json:"history,omitempty"`
}

// WriteReport writes the report as indented JSON with a trailing
// newline, the exact bytes CI stores as BENCH_serve.json.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Validate checks that data is a well-formed transn.bench.serve/v1
// report: valid JSON, the expected schema, required fields typed and in
// range, per-endpoint quantiles finite, non-negative and monotone
// (p50 ≤ p90 ≤ p99). It deliberately does not compare p99 to max:
// quantiles are bucket-interpolated estimates and may exceed the exact
// maximum when all mass sits low in a bucket.
func Validate(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("bench report is not valid JSON: %w", err)
	}
	var schema string
	if msg, ok := raw["schema"]; !ok {
		return fmt.Errorf("bench report is missing required field %q", "schema")
	} else if err := json.Unmarshal(msg, &schema); err != nil {
		return fmt.Errorf("field %q: %w", "schema", err)
	}
	if schema != BenchSchema {
		return fmt.Errorf("bench report schema %q, want %q", schema, BenchSchema)
	}
	var rep Report
	dec := json.Unmarshal(data, &rep)
	if dec != nil {
		return fmt.Errorf("bench report does not decode: %w", dec)
	}
	if rep.Name == "" {
		return fmt.Errorf("bench report name is empty")
	}
	if rep.Target == "" {
		return fmt.Errorf("bench report target is empty")
	}
	if rep.OfferedRate <= 0 {
		return fmt.Errorf("offered_rate = %v, want > 0", rep.OfferedRate)
	}
	if rep.AchievedRate < 0 {
		return fmt.Errorf("achieved_rate is negative: %v", rep.AchievedRate)
	}
	if rep.DurationSeconds <= 0 {
		return fmt.Errorf("duration_seconds = %v, want > 0", rep.DurationSeconds)
	}
	if rep.WarmupSeconds < 0 {
		return fmt.Errorf("warmup_seconds is negative: %v", rep.WarmupSeconds)
	}
	if rep.Sent < 0 || rep.OK < 0 || rep.Errors < 0 {
		return fmt.Errorf("negative request accounting: sent=%d ok=%d errors=%d",
			rep.Sent, rep.OK, rep.Errors)
	}
	if rep.OK+rep.Errors != rep.Sent {
		return fmt.Errorf("ok (%d) + errors (%d) != sent (%d)", rep.OK, rep.Errors, rep.Sent)
	}
	if rep.ErrorRate < 0 || rep.ErrorRate > 1 {
		return fmt.Errorf("error_rate = %v, want within [0,1]", rep.ErrorRate)
	}
	if rep.Endpoints == nil {
		return fmt.Errorf("bench report is missing required field %q", "endpoints")
	}
	known := map[string]bool{}
	for _, ep := range Endpoints() {
		known[string(ep)] = true
	}
	var sum int64
	for _, name := range ordered.Keys(rep.Endpoints) {
		es := rep.Endpoints[name]
		if !known[name] {
			return fmt.Errorf("unknown endpoint %q in report", name)
		}
		if es.Sent < 0 || es.OK < 0 || es.Errors < 0 {
			return fmt.Errorf("endpoint %q: negative accounting", name)
		}
		if es.OK+es.Errors != es.Sent {
			return fmt.Errorf("endpoint %q: ok (%d) + errors (%d) != sent (%d)",
				name, es.OK, es.Errors, es.Sent)
		}
		for _, q := range []struct {
			label string
			v     float64
		}{
			{"p50_seconds", es.P50Seconds},
			{"p90_seconds", es.P90Seconds},
			{"p99_seconds", es.P99Seconds},
			{"max_seconds", es.MaxSeconds},
			{"mean_seconds", es.MeanSeconds},
		} {
			if math.IsNaN(q.v) || math.IsInf(q.v, 0) || q.v < 0 {
				return fmt.Errorf("endpoint %q: %s = %v, want finite and non-negative",
					name, q.label, q.v)
			}
		}
		if es.Sent > 0 && (es.P50Seconds > es.P90Seconds || es.P90Seconds > es.P99Seconds) {
			return fmt.Errorf("endpoint %q: quantiles not monotone: p50=%v p90=%v p99=%v",
				name, es.P50Seconds, es.P90Seconds, es.P99Seconds)
		}
		if len(es.Histogram.Counts) != len(es.Histogram.Bounds)+1 {
			return fmt.Errorf("endpoint %q: histogram has %d counts for %d bounds, want bounds+1",
				name, len(es.Histogram.Counts), len(es.Histogram.Bounds))
		}
		sum += es.Sent
	}
	if sum != rep.Sent {
		return fmt.Errorf("endpoint sent counts sum to %d, report total is %d", sum, rep.Sent)
	}
	for _, code := range ordered.Keys(rep.ErrorsByCode) {
		if rep.ErrorsByCode[code] < 0 {
			return fmt.Errorf("errors_by_code[%q] is negative", code)
		}
	}
	if rep.ReloadsOK > rep.Reloads || rep.Reloads < 0 || rep.ReloadsOK < 0 {
		return fmt.Errorf("reloads_ok (%d) / reloads (%d) out of range", rep.ReloadsOK, rep.Reloads)
	}
	if rep.Server != nil {
		s := rep.Server
		if s.Requests < 0 || s.Errors < 0 || s.CacheHits < 0 || s.CacheMisses < 0 ||
			s.Coalesced < 0 || s.Reloads < 0 {
			return fmt.Errorf("server section has a negative counter delta")
		}
		if s.CacheHitRate < 0 || s.CacheHitRate > 1 {
			return fmt.Errorf("server cache_hit_rate = %v, want within [0,1]", s.CacheHitRate)
		}
	}
	if rep.Tail != nil {
		if err := validateTail(rep.Tail, known); err != nil {
			return err
		}
	}
	if rep.History != nil {
		if err := obs.CheckHistoryDump(rep.History); err != nil {
			return fmt.Errorf("history section: %w", err)
		}
	}
	return nil
}

// validateTail checks the report's tail section: slowest-first ordering,
// join accounting, known endpoint and stage names, finite values.
func validateTail(tail *TailStats, knownEndpoints map[string]bool) error {
	if tail.SlowestN < 1 {
		return fmt.Errorf("tail slowest_n = %d, want >= 1", tail.SlowestN)
	}
	if len(tail.Requests) > tail.SlowestN {
		return fmt.Errorf("tail holds %d requests over slowest_n %d", len(tail.Requests), tail.SlowestN)
	}
	if len(tail.Requests) == 0 {
		return fmt.Errorf("tail section present but has no requests")
	}
	knownStages := map[string]bool{}
	for _, s := range obs.TraceStages() {
		knownStages[string(s)] = true
	}
	joined := 0
	prev := math.Inf(1)
	for i, r := range tail.Requests {
		if r.ID == "" {
			return fmt.Errorf("tail request %d has an empty id", i)
		}
		if !knownEndpoints[r.Endpoint] {
			return fmt.Errorf("tail request %d (%s): unknown endpoint %q", i, r.ID, r.Endpoint)
		}
		for _, v := range []struct {
			label string
			val   float64
		}{{"client_seconds", r.ClientSeconds}, {"server_seconds", r.ServerSeconds}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("tail request %d (%s): %s = %v, want finite and non-negative",
					i, r.ID, v.label, v.val)
			}
		}
		if r.ClientSeconds > prev {
			return fmt.Errorf("tail requests not sorted slowest-first at index %d", i)
		}
		prev = r.ClientSeconds
		if r.Joined {
			joined++
		}
		for name, sec := range r.Stages {
			if !knownStages[name] {
				return fmt.Errorf("tail request %d (%s): unknown stage %q", i, r.ID, name)
			}
			if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
				return fmt.Errorf("tail request %d (%s): stage %q = %v", i, r.ID, name, sec)
			}
		}
	}
	if joined != tail.Joined {
		return fmt.Errorf("tail joined = %d but %d requests are marked joined", tail.Joined, joined)
	}
	if tail.Joined > 0 && len(tail.StageTotals) == 0 {
		return fmt.Errorf("tail joined %d requests but has no stage_totals", tail.Joined)
	}
	for name, sec := range tail.StageTotals {
		if !knownStages[name] {
			return fmt.Errorf("tail stage_totals has unknown stage %q", name)
		}
		if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			return fmt.Errorf("tail stage_totals[%q] = %v", name, sec)
		}
	}
	if tail.DominantStage != "" && !knownStages[tail.DominantStage] {
		return fmt.Errorf("tail dominant_stage %q is not a known stage", tail.DominantStage)
	}
	if tail.Joined > 0 && tail.DominantStage == "" {
		return fmt.Errorf("tail joined %d requests but dominant_stage is empty", tail.Joined)
	}
	return nil
}
