package load

import (
	"strings"
	"testing"
	"time"

	"transn/internal/obs"
)

func TestSlowTrackerKeepsNSlowest(t *testing.T) {
	st := &slowTracker{n: 3}
	// Latencies 1..10ms in shuffled order.
	for _, ms := range []int{4, 9, 1, 7, 10, 2, 8, 3, 6, 5} {
		st.add(result{id: string(rune('a' + ms)), latency: time.Duration(ms) * time.Millisecond})
	}
	if len(st.reqs) != 3 {
		t.Fatalf("tracker holds %d, want 3", len(st.reqs))
	}
	for i, wantMS := range []int{10, 9, 8} {
		if st.reqs[i].latency != time.Duration(wantMS)*time.Millisecond {
			t.Fatalf("slowest[%d] = %v, want %dms", i, st.reqs[i].latency, wantMS)
		}
	}
}

func TestBuildTailJoinsAndAttributes(t *testing.T) {
	slowest := []result{
		{id: "r1", ep: EndpointTranslate, latency: 30 * time.Millisecond},
		{id: "r2", ep: EndpointKNN, latency: 20 * time.Millisecond},
		{id: "r3", ep: EndpointEmbedding, latency: 10 * time.Millisecond},
	}
	traces := map[string]obs.TraceRecord{
		"r1": {ID: "r1", TotalSeconds: 0.028, Outcome: obs.TraceOutcomeOK,
			Stages: map[string]float64{
				string(obs.TraceStageDecode):  0.020,
				string(obs.TraceStageForward): 0.007,
			}},
		"r2": {ID: "r2", TotalSeconds: 0.018, Outcome: obs.TraceOutcomeOK,
			Stages: map[string]float64{string(obs.TraceStageForward): 0.017}},
		// r3 was not sampled server-side.
	}
	tail := buildTail(5, slowest, traces)
	if tail == nil || tail.SlowestN != 5 || len(tail.Requests) != 3 {
		t.Fatalf("tail = %+v", tail)
	}
	if tail.Joined != 2 {
		t.Fatalf("joined = %d, want 2", tail.Joined)
	}
	if !tail.Requests[0].Joined || tail.Requests[0].ServerSeconds != 0.028 {
		t.Fatalf("r1 row = %+v", tail.Requests[0])
	}
	if tail.Requests[2].Joined {
		t.Fatal("r3 should not join")
	}
	// decode total 0.020 < forward total 0.024 → forward dominates.
	if tail.DominantStage != string(obs.TraceStageForward) {
		t.Fatalf("dominant stage = %q, want forward", tail.DominantStage)
	}
	if got := tail.StageTotals[string(obs.TraceStageForward)]; got < 0.023 || got > 0.025 {
		t.Fatalf("forward total = %v", got)
	}
	// An empty run yields no section.
	if buildTail(5, nil, traces) != nil {
		t.Fatal("empty tail should be nil")
	}
}

func TestValidateTailRejectsCorrupt(t *testing.T) {
	known := map[string]bool{}
	for _, ep := range Endpoints() {
		known[string(ep)] = true
	}
	good := func() *TailStats {
		return &TailStats{
			SlowestN: 2, Joined: 1,
			Requests: []TailRequest{
				{ID: "a", Endpoint: "translate", ClientSeconds: 0.2, Joined: true,
					ServerSeconds: 0.19, Outcome: "ok",
					Stages: map[string]float64{string(obs.TraceStageForward): 0.18}},
				{ID: "b", Endpoint: "knn", ClientSeconds: 0.1},
			},
			StageTotals:   map[string]float64{string(obs.TraceStageForward): 0.18},
			DominantStage: string(obs.TraceStageForward),
		}
	}
	if err := validateTail(good(), known); err != nil {
		t.Fatalf("good tail rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TailStats)
		want   string
	}{
		{"zero n", func(ts *TailStats) { ts.SlowestN = 0 }, "slowest_n"},
		{"over n", func(ts *TailStats) { ts.SlowestN = 1 }, "over slowest_n"},
		{"empty id", func(ts *TailStats) { ts.Requests[0].ID = "" }, "empty id"},
		{"bad endpoint", func(ts *TailStats) { ts.Requests[0].Endpoint = "warp" }, "unknown endpoint"},
		{"unsorted", func(ts *TailStats) { ts.Requests[1].ClientSeconds = 0.5 }, "sorted"},
		{"join miscount", func(ts *TailStats) { ts.Joined = 2 }, "joined"},
		{"bad stage", func(ts *TailStats) {
			ts.Requests[0].Stages = map[string]float64{"warp": 1}
		}, "unknown stage"},
		{"bad totals stage", func(ts *TailStats) {
			ts.StageTotals = map[string]float64{"warp": 1}
		}, "stage_totals"},
		{"bad dominant", func(ts *TailStats) { ts.DominantStage = "warp" }, "dominant_stage"},
		{"joined without totals", func(ts *TailStats) { ts.StageTotals = nil }, "stage_totals"},
		{"negative client", func(ts *TailStats) { ts.Requests[0].ClientSeconds = -1 }, "client_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := good()
			tc.mutate(ts)
			err := validateTail(ts, known)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
