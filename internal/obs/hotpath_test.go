package obs

import "testing"

// TestHotPathsAllocFree pins the metric and request-trace calls that
// run on every served request or load-harness observation at zero
// allocations. The trace comes from TraceLog.Begin, so the stage marks
// take the live branch; serve's TestDisabledTracingZeroAlloc pins the
// nil one.
func TestHotPathsAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", []float64{1, 2, 4})
	lh := h.Local()
	tr := NewTraceLog(TraceConfig{SampleHead: 1, SampleRate: -1, SlowThreshold: -1}).Begin("req", "translate")
	if tr == nil {
		t.Fatal("TraceLog.Begin returned a nil trace")
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(0.5) }},
		{"Histogram.Observe", func() { h.Observe(3) }},
		{"LocalHist.Observe", func() { lh.Observe(3) }},
		// StartStage runs first, so EndStage finds a started stage and
		// records a duration.
		{"ReqTrace.StartStage", func() { tr.StartStage(TraceStageForward) }},
		{"ReqTrace.EndStage", func() { tr.EndStage(TraceStageForward) }},
		{"ReqTrace.SetCacheHit", tr.SetCacheHit},
		{"ReqTrace.SetGeneration", func() { tr.SetGeneration(7) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", tc.name, n)
		}
	}
}
