package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleRun() *Run {
	r := NewRun()
	r.Reg.Counter("skipgram.pairs").Add(1200)
	r.Reg.Counter("walk.paths").Add(50)
	r.Reg.Gauge("loss.single").Set(0.7)
	r.Reg.Histogram("cross.segment_loss", []float64{0.5, 1, 2, 4}).Observe(0.9)
	r.Trace.Start("skipgram").End()
	r.Trace.Start("walk").End()
	r.RecordPool(2*time.Millisecond, []WorkerSample{
		{Worker: 0, Busy: time.Millisecond, Shards: 3},
		{Worker: 1, Busy: 2 * time.Millisecond, Shards: 2},
	})
	return r
}

func TestReportRoundTripValidates(t *testing.T) {
	rep := sampleRun().Report("train")
	rep.Views = []ViewReport{{View: 0, LSingle: 0.7}}
	rep.Pairs = []PairReport{{Pair: 0, I: 0, J: 1, LCross: 1.2}}
	rep.Iterations = []IterationReport{{Iteration: 0, LSingle: 0.7, LCross: 1.2, ViewLoss: []float64{0.7}}}
	rep.Metrics = map[string]float64{"table3/AMiner/TransN/Micro-F1": 0.8}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("round-tripped report failed validation: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("report should end with a newline")
	}
	if rep.ExamplesPerSec <= 0 {
		t.Fatal("examples_per_sec not derived from skipgram.pairs")
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Worker != 0 || rep.Workers[0].Shards != 3 {
		t.Fatalf("worker summaries wrong: %+v", rep.Workers)
	}
	if rep.Workers[0].IdleSeconds <= 0 {
		t.Fatalf("worker 0 should have idle time (busy 1ms of 2ms wall): %+v", rep.Workers[0])
	}
}

func TestReportEmptyRunValidates(t *testing.T) {
	var r *Run
	var buf bytes.Buffer
	if err := WriteReport(&buf, r.Report("empty")); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("nil-run report failed validation: %v", err)
	}
}

func TestValidateReportRejectsBadInput(t *testing.T) {
	good, _ := json.Marshal(sampleRun().Report("x"))
	cases := map[string]string{
		"not json":       "{",
		"wrong schema":   strings.Replace(string(good), ReportSchema, "other/v9", 1),
		"missing schema": strings.Replace(string(good), `"schema"`, `"schema_x"`, 1),
		"empty name":     strings.Replace(string(good), `"name":"x"`, `"name":""`, 1),
		"bad stages":     strings.Replace(string(good), `"stages":[`, `"stages":[1,`, 1),
	}
	for name, data := range cases {
		if err := ValidateReport([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
	if err := ValidateReport(good); err != nil {
		t.Fatalf("control report failed: %v", err)
	}
}

func TestValidateReportRejectsNegativeDurations(t *testing.T) {
	rep := sampleRun().Report("x")
	rep.WallSeconds = -1
	data, _ := json.Marshal(rep)
	if err := ValidateReport(data); err == nil {
		t.Fatal("negative wall_seconds should fail validation")
	}
}

// TestReportSanitizeNonFinite checks that WriteReport survives
// non-finite values (which encoding/json rejects) by zeroing them and
// counting the replacements, and that the result still validates.
func TestReportSanitizeNonFinite(t *testing.T) {
	run := NewRun()
	run.Reg.Gauge("loss.single").Set(math.NaN())
	run.Reg.Gauge("loss.cross").Set(math.Inf(1))
	run.Reg.Gauge("healthy").Set(2.5)
	rep := run.Report("sanitize-test")
	rep.Iterations = []IterationReport{{Iteration: 0, LSingle: math.NaN(), ViewLoss: []float64{1, math.Inf(-1)}}}
	rep.Metrics = map[string]float64{"bad": math.NaN(), "good": 1}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatalf("WriteReport with non-finite values: %v", err)
	}
	if err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("sanitized report does not validate: %v", err)
	}
	// NaN gauge, +Inf gauge, NaN iteration loss, -Inf view loss, NaN metric.
	if rep.NonFiniteValues != 5 {
		t.Fatalf("NonFiniteValues = %d, want 5", rep.NonFiniteValues)
	}
	if rep.Gauges["healthy"] != 2.5 || rep.Metrics["good"] != 1 {
		t.Fatal("sanitize clobbered finite values")
	}
	if rep.Gauges["loss.single"] != 0 || rep.Metrics["bad"] != 0 {
		t.Fatal("sanitize left non-finite values in place")
	}
}
