package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerSpansAndStages(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("walk")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatal("span duration not positive")
	}
	tr.Start("walk").End()
	tr.Start("skipgram").End()

	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	// walk has 2 spans including the slept one, so it sorts first.
	if stages[0].Name != "walk" || stages[0].Count != 2 {
		t.Fatalf("stage aggregation wrong: %+v", stages)
	}
	if stages[0].TotalSeconds < stages[0].MaxSeconds || stages[0].MaxSeconds < stages[0].MinSeconds {
		t.Fatalf("stage bounds inconsistent: %+v", stages[0])
	}
	if stages[0].MaxSeconds < d.Seconds() {
		t.Fatalf("walk max %v below the slept span's %v", stages[0].MaxSeconds, d.Seconds())
	}
}

// Spans may end concurrently (cross-view pair steps fan out); the
// tracer must tolerate that under -race.
func TestTracerConcurrentEnd(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Start("cross_pair").End()
		}()
	}
	wg.Wait()
	st := tr.Stages()
	if len(st) != 1 || st[0].Count != 16 {
		t.Fatalf("stage summary wrong: %+v", st)
	}
}

// TestTracerKeepsOneSummaryPerName pins the bounded memory of a
// long-running tracer: spans fold into their name's summary as they
// end, so 10,000 spans over 3 names leave 3 summaries.
func TestTracerKeepsOneSummaryPerName(t *testing.T) {
	tr := NewTracer()
	names := []string{"serve.reload", "snap.load", "ann.build"}
	for i := 0; i < 10000; i++ {
		tr.Start(names[i%3]).End()
	}
	if len(tr.stages) != 3 {
		t.Fatalf("tracer holds %d summaries, want 3", len(tr.stages))
	}
	want := map[string]int{"serve.reload": 3334, "snap.load": 3333, "ann.build": 3333}
	st := tr.Stages()
	if len(st) != 3 {
		t.Fatalf("got %d stages, want 3: %+v", len(st), st)
	}
	for _, s := range st {
		if s.Count != want[s.Name] {
			t.Fatalf("%s count = %d, want %d", s.Name, s.Count, want[s.Name])
		}
		if s.MinSeconds > s.MaxSeconds || s.TotalSeconds < s.MaxSeconds {
			t.Fatalf("%s bounds inconsistent: %+v", s.Name, s)
		}
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer should return nil span")
	}
	if sp.End() != 0 {
		t.Fatal("nil span End should return 0")
	}
	if tr.Stages() != nil {
		t.Fatal("nil tracer aggregation should be nil")
	}
}
