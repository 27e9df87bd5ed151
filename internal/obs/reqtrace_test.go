package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStageIndexCoversAllStages(t *testing.T) {
	seen := map[int]bool{}
	for _, s := range TraceStages() {
		i := traceStageIndex(s)
		if i < 0 || i >= numTraceStages {
			t.Fatalf("stage %q maps to index %d outside [0, %d)", s, i, numTraceStages)
		}
		if seen[i] {
			t.Fatalf("stage %q collides on index %d", s, i)
		}
		seen[i] = true
	}
	if len(seen) != numTraceStages {
		t.Fatalf("TraceStages covers %d slots, want %d", len(seen), numTraceStages)
	}
	if traceStageIndex("bogus") != -1 {
		t.Fatal("unknown stage should map to -1")
	}
}

func TestReqTraceNilSafety(t *testing.T) {
	var tr *ReqTrace
	tr.StartStage(TraceStageDecode)
	tr.EndStage(TraceStageDecode)
	tr.SetCacheHit()
	tr.SetGeneration(7)
	if tr.ID() != "" || tr.Sampled() {
		t.Fatal("nil trace should report zero values")
	}
	var tl *TraceLog
	if got := tl.Begin("id", "ep"); got != nil {
		t.Fatal("nil TraceLog.Begin should return nil")
	}
	if _, kept := tl.Finish(nil, TraceOutcomeOK, 200, ""); kept {
		t.Fatal("nil TraceLog.Finish should not keep")
	}
	if tl.DumpRequests() != nil || tl.DumpSlow() != nil {
		t.Fatal("nil TraceLog dumps should be nil")
	}
	if tl.SlowThreshold() != 0 {
		t.Fatal("nil TraceLog threshold should be zero")
	}
	var ring *TraceRing
	ring.Add(TraceRecord{})
	if ring.Len() != 0 || ring.Cap() != 0 || ring.Total() != 0 || ring.Dump() != nil {
		t.Fatal("nil ring should report empty")
	}
}

func TestTraceLogDeterministicSampling(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: 3, SampleRate: 10, RingSize: 64, SlowThreshold: -1})
	var sampled []uint64
	for i := 1; i <= 25; i++ {
		tr := tl.Begin(fmt.Sprintf("r%d", i), "embedding")
		if tr.Sampled() {
			sampled = append(sampled, tr.seq)
		}
		tl.Finish(tr, TraceOutcomeOK, 200, "")
	}
	want := []uint64{1, 2, 3, 10, 20}
	if fmt.Sprint(sampled) != fmt.Sprint(want) {
		t.Fatalf("sampled seqs = %v, want %v", sampled, want)
	}
	d := tl.DumpRequests()
	if d.Seen != 25 || d.Kept != uint64(len(want)) || len(d.Traces) != len(want) {
		t.Fatalf("dump seen/kept/len = %d/%d/%d, want 25/%d/%d",
			d.Seen, d.Kept, len(d.Traces), len(want), len(want))
	}
}

func TestTraceLogSamplingDisabled(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: -1, SampleRate: -1, SlowThreshold: -1})
	for i := 0; i < 100; i++ {
		tr := tl.Begin("r", "knn")
		if tr.Sampled() {
			t.Fatal("no request should be sampled with both dimensions disabled")
		}
		if _, kept := tl.Finish(tr, TraceOutcomeOK, 200, ""); kept {
			t.Fatal("nothing should be kept")
		}
	}
}

func TestTraceFinishRecordsStagesAndFlags(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: 1, SampleRate: -1, SlowThreshold: -1})
	tr := tl.Begin("req-1", "translate")
	tr.StartStage(TraceStageDecode)
	tr.EndStage(TraceStageDecode)
	tr.StartStage(TraceStageForward)
	time.Sleep(2 * time.Millisecond)
	tr.EndStage(TraceStageForward)
	tr.SetCacheHit()
	tr.SetGeneration(3)
	rec, kept := tl.Finish(tr, TraceOutcomeOK, 200, "")
	if !kept {
		t.Fatal("head-sampled trace should be kept")
	}
	if rec.ID != "req-1" || rec.Endpoint != "translate" || rec.Seq != 1 {
		t.Fatalf("record identity wrong: %+v", rec)
	}
	if !rec.CacheHit || rec.Coalesced || rec.Generation != 3 {
		t.Fatalf("record flags wrong: %+v", rec)
	}
	if _, ok := rec.Stages[string(TraceStageDecode)]; !ok {
		t.Fatal("decode stage missing")
	}
	fw := rec.Stages[string(TraceStageForward)]
	if fw < (1 * time.Millisecond).Seconds() {
		t.Fatalf("forward stage = %v, want >= 1ms", fw)
	}
	if _, ok := rec.Stages[string(TraceStageCache)]; ok {
		t.Fatal("unvisited cache stage should be absent")
	}
	if rec.TotalSeconds < fw {
		t.Fatalf("total %v < forward %v", rec.TotalSeconds, fw)
	}
}

// TestTraceFinishClosesOpenStage is the obs-level half of the timeout
// story: a stage that was started but never ended (the handler was
// still in its forward pass at the deadline) must appear in the record
// at its duration so far.
func TestTraceFinishClosesOpenStage(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: 1, SampleRate: -1, SlowThreshold: -1})
	tr := tl.Begin("req-t", "translate")
	tr.StartStage(TraceStageForward)
	time.Sleep(2 * time.Millisecond)
	rec, kept := tl.Finish(tr, TraceOutcomeTimeout, 504, "timeout")
	if !kept {
		t.Fatal("trace should be kept")
	}
	fw, ok := rec.Stages[string(TraceStageForward)]
	if !ok {
		t.Fatal("open forward stage missing from record")
	}
	if fw < (1 * time.Millisecond).Seconds() {
		t.Fatalf("open forward stage = %v, want >= 1ms", fw)
	}
	if rec.Outcome != TraceOutcomeTimeout || rec.Code != "timeout" {
		t.Fatalf("outcome/code = %q/%q", rec.Outcome, rec.Code)
	}
}

func TestTraceLogSlowRing(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: -1, SampleRate: -1, SlowThreshold: time.Nanosecond})
	tr := tl.Begin("slow-1", "knn")
	time.Sleep(time.Millisecond)
	rec, kept := tl.Finish(tr, TraceOutcomeOK, 200, "")
	if !kept || !rec.Slow || rec.Sampled {
		t.Fatalf("slow-only trace: kept=%v rec=%+v", kept, rec)
	}
	if n := tl.DumpSlow().Kept; n != 1 {
		t.Fatalf("slow ring kept %d, want 1", n)
	}
	if n := tl.DumpRequests().Kept; n != 0 {
		t.Fatalf("sampled ring kept %d, want 0", n)
	}
}

func TestTraceRingOverwritesOldest(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(TraceRecord{Seq: uint64(i)})
	}
	got := r.Dump()
	if len(got) != 3 || got[0].Seq != 3 || got[1].Seq != 4 || got[2].Seq != 5 {
		t.Fatalf("ring dump = %+v, want seqs 3,4,5", got)
	}
	if r.Total() != 5 || r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("ring accounting total/len/cap = %d/%d/%d", r.Total(), r.Len(), r.Cap())
	}
}

// TestTraceRingConcurrent is the property/race test from the issue: 12
// writers hammer the ring while readers dump concurrently, then the
// final state is checked against a slice oracle. Run under -race this
// also proves no torn records: each dumped record's fields must be
// internally consistent (ID derived from Seq).
func TestTraceRingConcurrent(t *testing.T) {
	const (
		writers   = 12
		perWriter = 500
		capacity  = 64
	)
	r := NewTraceRing(capacity)

	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for _, rec := range r.Dump() {
					if rec.ID != fmt.Sprintf("w%d", rec.Seq) {
						t.Errorf("torn record: seq %d with id %q", rec.Seq, rec.ID)
						return
					}
				}
				if n := r.Len(); n > capacity {
					t.Errorf("ring len %d exceeds capacity %d", n, capacity)
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				seq := uint64(w*perWriter + i)
				r.Add(TraceRecord{
					Seq:      seq,
					ID:       fmt.Sprintf("w%d", seq),
					Endpoint: "embedding",
					Sampled:  true,
				})
			}
		}(w)
	}
	writerWG.Wait()
	close(stopReaders)
	wg.Wait()

	// Oracle: after all writes, exactly capacity records remain, total
	// equals every append, and the retained set is a subset of what was
	// written (each at most once — the ring never duplicates).
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	final := r.Dump()
	if len(final) != capacity {
		t.Fatalf("final len = %d, want %d", len(final), capacity)
	}
	seen := map[uint64]bool{}
	for _, rec := range final {
		if rec.Seq >= writers*perWriter {
			t.Fatalf("record seq %d was never written", rec.Seq)
		}
		if seen[rec.Seq] {
			t.Fatalf("record seq %d retained twice", rec.Seq)
		}
		seen[rec.Seq] = true
	}

	// Sequential oracle: with a single writer the ring must retain
	// exactly the last `capacity` appends in order, matching a slice.
	seq := NewTraceRing(capacity)
	var oracle []TraceRecord
	for i := 0; i < 10*capacity+7; i++ {
		rec := TraceRecord{Seq: uint64(i), ID: fmt.Sprintf("w%d", i)}
		seq.Add(rec)
		oracle = append(oracle, rec)
		if len(oracle) > capacity {
			oracle = oracle[1:]
		}
	}
	got := seq.Dump()
	if len(got) != len(oracle) {
		t.Fatalf("sequential dump len = %d, want %d", len(got), len(oracle))
	}
	for i := range got {
		if got[i].Seq != oracle[i].Seq {
			t.Fatalf("sequential dump[%d].Seq = %d, oracle %d", i, got[i].Seq, oracle[i].Seq)
		}
	}
}

// TestTraceConcurrentFinishAndMark reproduces the timeout race shape at
// the trace level: one goroutine keeps marking stages while another
// finalizes the trace. Under -race this must be clean, and Finish must
// still produce a well-formed record.
func TestTraceConcurrentFinishAndMark(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: 1 << 30, SampleRate: -1, SlowThreshold: -1})
	for i := 0; i < 50; i++ {
		tr := tl.Begin(fmt.Sprintf("r%d", i), "translate")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 100; j++ {
				tr.StartStage(TraceStageForward)
				tr.EndStage(TraceStageForward)
				tr.SetCacheHit()
				tr.SetGeneration(uint64(j))
			}
		}()
		rec, kept := tl.Finish(tr, TraceOutcomeTimeout, 504, "timeout")
		<-done
		if !kept {
			t.Fatal("trace should be kept")
		}
		if rec.Outcome != TraceOutcomeTimeout {
			t.Fatalf("outcome = %q", rec.Outcome)
		}
	}
}

func TestWriteAndValidateTraceDump(t *testing.T) {
	tl := NewTraceLog(TraceConfig{SampleHead: 8, SampleRate: -1, SlowThreshold: time.Nanosecond})
	for i := 0; i < 5; i++ {
		tr := tl.Begin(fmt.Sprintf("req-%d", i), "embedding")
		tr.StartStage(TraceStageDecode)
		tr.EndStage(TraceStageDecode)
		tl.Finish(tr, TraceOutcomeOK, 200, "")
	}
	for _, dump := range []*TraceDump{tl.DumpRequests(), tl.DumpSlow()} {
		var buf bytes.Buffer
		if err := WriteTraceDump(&buf, dump); err != nil {
			t.Fatalf("WriteTraceDump(%s): %v", dump.Ring, err)
		}
		if err := ValidateTraceDump(buf.Bytes()); err != nil {
			t.Fatalf("ValidateTraceDump(%s): %v", dump.Ring, err)
		}
		if !strings.HasSuffix(buf.String(), "\n") {
			t.Fatal("dump should end with a newline")
		}
	}
}

func TestValidateTraceDumpRejectsCorrupt(t *testing.T) {
	base := func() *TraceDump {
		return &TraceDump{
			Schema: TraceDumpSchema, Ring: TraceRingRequests, Capacity: 4,
			Seen: 2, Kept: 1, SampleHead: 1, SampleRate: 1,
			Traces: []TraceRecord{{
				ID: "r1", Seq: 1, Endpoint: "knn", Start: time.Now(),
				TotalSeconds: 0.01,
				Stages:       map[string]float64{string(TraceStageForward): 0.005},
				Outcome:      TraceOutcomeOK, Status: 200, Sampled: true,
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*TraceDump)
		want   string
	}{
		{"not json", nil, "not valid JSON"},
		{"bad schema", func(d *TraceDump) { d.Schema = "transn.trace.serve/v0" }, "schema"},
		{"bad ring", func(d *TraceDump) { d.Ring = "warm" }, "ring"},
		{"zero capacity", func(d *TraceDump) { d.Capacity = 0 }, "capacity"},
		{"over capacity", func(d *TraceDump) {
			d.Capacity = 0
			d.Capacity = 1
			d.Traces = append(d.Traces, d.Traces[0], d.Traces[0])
		}, "over capacity"},
		{"kept undercount", func(d *TraceDump) { d.Kept = 0 }, "kept only"},
		{"empty id", func(d *TraceDump) { d.Traces[0].ID = "" }, "empty id"},
		{"empty endpoint", func(d *TraceDump) { d.Traces[0].Endpoint = "" }, "empty endpoint"},
		{"bad outcome", func(d *TraceDump) { d.Traces[0].Outcome = "meh" }, "unknown outcome"},
		{"bad status", func(d *TraceDump) { d.Traces[0].Status = 42 }, "status"},
		{"negative total", func(d *TraceDump) { d.Traces[0].TotalSeconds = -1 }, "total_seconds"},
		{"unknown stage", func(d *TraceDump) { d.Traces[0].Stages["warp"] = 0.1 }, "unknown stage"},
		{"negative stage", func(d *TraceDump) { d.Traces[0].Stages[string(TraceStageForward)] = -0.1 }, "finite and non-negative"},
		{"unkept record", func(d *TraceDump) { d.Traces[0].Sampled = false; d.Traces[0].Slow = false }, "neither sampled nor slow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			if tc.mutate == nil {
				data = []byte("{nope")
			} else {
				d := base()
				tc.mutate(d)
				var err error
				data, err = json.Marshal(d)
				if err != nil {
					t.Fatal(err)
				}
			}
			err := ValidateTraceDump(data)
			if err == nil {
				t.Fatal("want validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// And the base document itself must be clean.
	data, err := json.Marshal(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceDump(data); err != nil {
		t.Fatalf("base dump should validate: %v", err)
	}
}

func TestPollRuntimePublishesGauges(t *testing.T) {
	run := NewRun()
	stop := run.PollRuntime(time.Hour) // first sample is synchronous
	defer stop()
	snap := run.Reg.Snapshot()
	for _, name := range []string{
		MetricRuntimeHeapAlloc, MetricRuntimeGCPauseTotal,
		MetricRuntimeGCCycles, MetricRuntimeGoroutines,
		MetricRuntimeSchedLatency,
	} {
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q not published", name)
		}
		if v < 0 {
			t.Fatalf("gauge %q = %v, want >= 0", name, v)
		}
	}
	if snap.Gauges[MetricRuntimeHeapAlloc] == 0 {
		t.Fatal("heap_alloc_bytes should be positive on a live process")
	}
	stop()
	stop() // idempotent
	var nilRun *Run
	nilRun.PollRuntime(time.Second)() // nil-safe
}
