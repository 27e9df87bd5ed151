package load

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"transn/internal/obs"
	"transn/internal/ordered"
)

// headerRequestID mirrors serve's X-Transn-Request-Id header without
// importing the serving stack: the harness stamps a deterministic ID on
// every request so its client-side observations can be joined against
// the server's trace rings after the run.
const headerRequestID = "X-Transn-Request-Id"

// TailRequest is one of the run's slowest client-observed requests,
// joined (when the server kept a trace for it) with the server-side
// per-stage breakdown — the "why was this slow" row of the report.
type TailRequest struct {
	// ID is the correlation ID the harness sent (and the server echoed).
	ID string `json:"id"`
	// Endpoint is the request's endpoint name.
	Endpoint string `json:"endpoint"`
	// ClientSeconds is the client-observed open-loop latency (from the
	// scheduled arrival instant — queueing included).
	ClientSeconds float64 `json:"client_seconds"`
	// Joined reports whether a server-side trace was found for the ID;
	// the remaining fields are only meaningful when true.
	Joined bool `json:"joined"`
	// ServerSeconds is the server's own total for the request. The gap
	// ClientSeconds − ServerSeconds is network + client-side queueing.
	ServerSeconds float64 `json:"server_seconds,omitempty"`
	// Outcome is the server's trace outcome (ok, error, timeout, panic).
	Outcome string `json:"outcome,omitempty"`
	// CacheHit is the server's row-table hit flag.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Coalesced is always false (and so omitted): the server has no
	// request coalescer. The field stays because transn.bench.serve/v1
	// is frozen with it.
	Coalesced bool `json:"coalesced,omitempty"`
	// Stages is the server-side per-stage breakdown in seconds.
	Stages map[string]float64 `json:"stages,omitempty"`
}

// TailStats is the tail-latency attribution section of the report: the
// slowest-N client observations joined against the server's sampled and
// slow trace rings, with per-stage totals so "p99 is forward-bound" is
// a measured sentence rather than a guess.
type TailStats struct {
	// SlowestN is how many tail requests were requested (always 10);
	// Requests may be shorter when fewer measured requests completed.
	SlowestN int `json:"slowest_n"`
	// Joined counts Requests rows with a server-side trace.
	Joined int `json:"joined"`
	// Requests lists the slowest measured requests, slowest first.
	Requests []TailRequest `json:"requests"`
	// StageTotals sums each server-side stage's seconds across the
	// joined rows. Present only when Joined > 0.
	StageTotals map[string]float64 `json:"stage_totals,omitempty"`
	// DominantStage is the stage with the largest total — the tail's
	// bottleneck. Empty when nothing joined.
	DominantStage string `json:"dominant_stage,omitempty"`
}

// fetchTraceDump GETs one of the server's /debug trace rings and
// validates the document before trusting it.
func fetchTraceDump(client *http.Client, base, path string) (*obs.TraceDump, error) {
	resp, err := client.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: %s returned %d", path, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := obs.ValidateTraceDump(data); err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	var d obs.TraceDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// fetchServerTraces collects the server's kept trace records keyed by
// request ID, merging the sampled and slow rings (the slow ring wins on
// overlap — identical records anyway). Both rings failing to fetch —
// tracing disabled server-side, old server — degrades to an empty map
// and the tail section reports zero joins instead of erroring the run.
func fetchServerTraces(client *http.Client, base string) map[string]obs.TraceRecord {
	byID := map[string]obs.TraceRecord{}
	for _, path := range []string{"/debug/requests", "/debug/slow"} {
		d, err := fetchTraceDump(client, base, path)
		if err != nil {
			continue
		}
		for _, rec := range d.Traces {
			byID[rec.ID] = rec
		}
	}
	return byID
}

// fetchHistoryDump GETs the server's /debug/history flight-recorder
// dump, validating the document before trusting it. Any failure
// (recorder disabled server-side, old server, corrupt dump) degrades to
// nil — the curves are additive context, not a run requirement.
func fetchHistoryDump(client *http.Client, base string) *obs.HistoryDump {
	resp, err := client.Get(base + "/debug/history")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	if err := obs.ValidateHistoryDump(data); err != nil {
		return nil
	}
	var d obs.HistoryDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil
	}
	return &d
}

// buildTail joins the collector's slowest-N client observations against
// the server traces. slowest must be sorted slowest-first. Returns nil
// when nothing was measured.
func buildTail(slowN int, slowest []result, traces map[string]obs.TraceRecord) *TailStats {
	if len(slowest) == 0 {
		return nil
	}
	tail := &TailStats{SlowestN: slowN}
	totals := map[string]float64{}
	for _, r := range slowest {
		row := TailRequest{
			ID:            r.id,
			Endpoint:      string(r.ep),
			ClientSeconds: r.latency.Seconds(),
		}
		if rec, ok := traces[r.id]; ok {
			row.Joined = true
			row.ServerSeconds = rec.TotalSeconds
			row.Outcome = string(rec.Outcome)
			row.CacheHit = rec.CacheHit
			row.Stages = rec.Stages
			tail.Joined++
			// ordered iteration: stage totals sum in a fixed order so
			// the float result is bit-identical run to run.
			for _, name := range ordered.Keys(rec.Stages) {
				totals[name] += rec.Stages[name]
			}
		}
		tail.Requests = append(tail.Requests, row)
	}
	if tail.Joined > 0 {
		tail.StageTotals = totals
		best := ""
		bestV := -1.0
		// ordered iteration: deterministic winner on exact ties.
		for _, name := range ordered.Keys(totals) {
			if totals[name] > bestV {
				best, bestV = name, totals[name]
			}
		}
		tail.DominantStage = best
	}
	return tail
}

// slowTracker keeps the N slowest measured results seen so far, in
// descending latency order. Single-threaded (the collector owns it).
type slowTracker struct {
	n    int
	reqs []result
}

// add offers one measured result to the tracker.
func (st *slowTracker) add(r result) {
	if len(st.reqs) < st.n || r.latency > st.reqs[len(st.reqs)-1].latency {
		st.reqs = append(st.reqs, r)
		sort.SliceStable(st.reqs, func(i, j int) bool {
			return st.reqs[i].latency > st.reqs[j].latency
		})
		if len(st.reqs) > st.n {
			st.reqs = st.reqs[:st.n]
		}
	}
}
