package transn

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"transn/internal/obs"
)

// Telemetry suite for the instrumented trainer: registry counters merge
// to exact totals across concurrent shards, spans cover every stage of
// Algorithm 1, the JSON report carries per-view/per-pair losses, and
// the event stream is deterministic. The whole file runs under -race in
// CI (telemetry enabled on concurrent views and walk shards is exactly
// the contended case).

func telemetryCfg(workers int) Config {
	cfg := quickCfg()
	cfg.Workers = workers
	return cfg
}

func TestTrainTelemetryReportAndCounters(t *testing.T) {
	g := socialGraph(t, 12, 6, 3)
	run := obs.NewRun()
	var events []obs.TrainEvent
	cfg := telemetryCfg(4) // concurrent views: telemetry must be race-safe
	cfg.Telemetry = run
	cfg.Observer = func(ev obs.TrainEvent) { events = append(events, ev) }
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Counters merged across shards must equal the event-stream sums —
	// both sides are derived from the same per-shard counts, so any
	// lost update in the merge would break the equality.
	var wantWalks, wantPairs, wantSegs int64
	for _, ev := range events {
		switch ev.Stage {
		case obs.StageWalk:
			wantWalks += int64(ev.Examples)
		case obs.StageSkipGram:
			wantPairs += int64(ev.Examples)
		case obs.StageCrossPair:
			wantSegs += int64(ev.Examples)
		}
	}
	snap := run.Reg.Snapshot()
	if got := snap.Counters["walk.paths"]; got != wantWalks || got == 0 {
		t.Fatalf("walk.paths counter %d, events sum %d", got, wantWalks)
	}
	if got := snap.Counters["skipgram.pairs"]; got != wantPairs || got == 0 {
		t.Fatalf("skipgram.pairs counter %d, events sum %d", got, wantPairs)
	}
	if got := snap.Counters["cross.segments"]; got != wantSegs || got == 0 {
		t.Fatalf("cross.segments counter %d, events sum %d", got, wantSegs)
	}
	if h := snap.Histograms["cross.segment_loss"]; h.Count != wantSegs {
		t.Fatalf("segment-loss histogram count %d, want %d", h.Count, wantSegs)
	}

	// Spans cover every stage; per-view stages appear once per view per
	// iteration.
	stages := map[string]int{}
	for _, s := range run.Trace.Stages() {
		stages[s.Name] = s.Count
	}
	views := 0
	for _, v := range m.Views() {
		if v.NumNodes() > 0 {
			views++
		}
	}
	if stages["train"] != 1 || stages["iteration"] != cfg.Iterations {
		t.Fatalf("train/iteration span counts wrong: %v", stages)
	}
	if stages["walk"] != views*cfg.Iterations || stages["skipgram"] != views*cfg.Iterations {
		t.Fatalf("per-view span counts wrong (views=%d iters=%d): %v", views, cfg.Iterations, stages)
	}
	if stages["cross_pair"] != len(m.ViewPairs())*cfg.Iterations {
		t.Fatalf("cross_pair span count wrong (pairs=%d): %v", len(m.ViewPairs()), stages)
	}

	// Per-worker accounting saw every pool worker do real work.
	workers := run.WorkerSummaries()
	if len(workers) == 0 {
		t.Fatal("no worker summaries recorded")
	}
	var busy float64
	for _, w := range workers {
		busy += w.BusySeconds
	}
	if busy <= 0 {
		t.Fatal("zero total busy time")
	}

	// The report carries per-stage wall time, per-view L_single,
	// per-pair L_cross and examples/sec, and validates against the
	// schema.
	rep := m.Report()
	if len(rep.Views) != views || len(rep.Pairs) != len(m.ViewPairs()) {
		t.Fatalf("report views/pairs: %d/%d want %d/%d", len(rep.Views), len(rep.Pairs), views, len(m.ViewPairs()))
	}
	for _, v := range rep.Views {
		if v.LSingle <= 0 || math.IsNaN(v.LSingle) {
			t.Fatalf("view %d final L_single %v not positive", v.View, v.LSingle)
		}
	}
	for _, p := range rep.Pairs {
		if math.IsNaN(p.LCross) {
			t.Fatalf("pair %d final L_cross is NaN", p.Pair)
		}
	}
	if len(rep.Iterations) != cfg.Iterations {
		t.Fatalf("report has %d iterations, want %d", len(rep.Iterations), cfg.Iterations)
	}
	if rep.ExamplesPerSec <= 0 {
		t.Fatal("report examples_per_sec not positive")
	}
	var buf bytes.Buffer
	if err := obs.WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("training report failed schema validation: %v", err)
	}
}

// Final per-view losses must be returned from Train (via History /
// FinalLosses) so callers can assert convergence — previously they were
// computed and discarded after each step.
func TestFinalLossesReturnedAndConverging(t *testing.T) {
	g := socialGraph(t, 12, 6, 5)
	cfg := quickCfg()
	cfg.Iterations = 5
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viewLoss, pairLoss := m.FinalLosses()
	if len(viewLoss) != len(m.Views()) {
		t.Fatalf("FinalLosses returned %d view losses, want %d", len(viewLoss), len(m.Views()))
	}
	if len(pairLoss) != len(m.ViewPairs()) {
		t.Fatalf("FinalLosses returned %d pair losses, want %d", len(pairLoss), len(m.ViewPairs()))
	}
	for vi, l := range viewLoss {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("view %d final loss %v not finite-positive", vi, l)
		}
	}
	// Convergence: the skip-gram loss at the end must improve on the
	// first iteration (learning rate decays, fresh walks every pass).
	first, last := m.History[0], m.History[len(m.History)-1]
	if last.SingleLoss >= first.SingleLoss {
		t.Fatalf("single-view loss did not decrease: %v -> %v", first.SingleLoss, last.SingleLoss)
	}
	// Components add up to the pair loss.
	for _, st := range m.History {
		if math.Abs(st.Translation+st.Reconstruction-st.CrossLoss) > 1e-9 {
			t.Fatalf("iteration %d: translation %v + reconstruction %v != cross %v",
				st.Iteration, st.Translation, st.Reconstruction, st.CrossLoss)
		}
	}
}

// Identical event streams for the same Seed and Workers:
// every non-timing field of every event must match across runs, at any
// worker count.
func TestEventStreamDeterministic(t *testing.T) {
	collect := func(workers int) []obs.TrainEvent {
		g := socialGraph(t, 10, 5, 7)
		cfg := telemetryCfg(workers)
		var events []obs.TrainEvent
		cfg.Observer = func(ev obs.TrainEvent) { events = append(events, ev.Deterministic()) }
		if _, err := Train(g, cfg); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for _, workers := range []int{1, 4} {
		a, b := collect(workers), collect(workers)
		if len(a) == 0 {
			t.Fatalf("workers=%d: empty event stream", workers)
		}
		if !reflect.DeepEqual(a, b) {
			for i := range a {
				if i < len(b) && a[i] != b[i] {
					t.Fatalf("workers=%d: event %d differs:\n  %+v\n  %+v", workers, i, a[i], b[i])
				}
			}
			t.Fatalf("workers=%d: event streams differ in length: %d vs %d", workers, len(a), len(b))
		}
	}
}

// With NoCrossView there must be no cross_pair events; with ablations
// disabling one cross task, the corresponding component must be zero.
func TestEventStreamAblations(t *testing.T) {
	g := socialGraph(t, 10, 5, 9)
	cfg := quickCfg()
	cfg.NoCrossView = true
	var stages []obs.Stage
	cfg.Observer = func(ev obs.TrainEvent) { stages = append(stages, ev.Stage) }
	if _, err := Train(g, cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range stages {
		if s == obs.StageCrossPair {
			t.Fatal("cross_pair event emitted under NoCrossView")
		}
	}

	cfg = quickCfg()
	cfg.NoTranslation = true
	sawCross := false
	cfg.Observer = func(ev obs.TrainEvent) {
		if ev.Stage == obs.StageCrossPair {
			sawCross = true
			if ev.LTranslation != 0 {
				t.Fatalf("translation component %v under NoTranslation", ev.LTranslation)
			}
		}
	}
	if _, err := Train(g, cfg); err != nil {
		t.Fatal(err)
	}
	if !sawCross {
		t.Fatal("no cross_pair events under NoTranslation ablation")
	}
}

// Training with telemetry enabled must not change the embeddings: the
// instrumentation only observes.
func TestTelemetryDoesNotPerturbTraining(t *testing.T) {
	cfg := telemetryCfg(2)
	bare, _ := trainEmb(t, cfg, 31)

	cfg = telemetryCfg(2)
	cfg.Telemetry = obs.NewRun()
	cfg.Observer = func(obs.TrainEvent) {}
	instrumented, _ := trainEmb(t, cfg, 31)

	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatal("telemetry changed training results")
	}
}
