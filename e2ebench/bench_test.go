package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"transn/internal/ann"
	"transn/internal/dataset"
	"transn/internal/mat"
	"transn/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOrderStatIsExactRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.005, 1}, {0.5, 100}, {0.501, 101}, {0.99, 198}, {0.999, 200}, {1, 200},
	} {
		if got := orderStat(xs, c.q); got != c.want {
			t.Errorf("orderStat(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := orderStat(nil, 0.5); got != 0 {
		t.Errorf("orderStat(nil) = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2}, 0.175, 0.75},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestStageAccountSelfTimeShareAndAllocation(t *testing.T) {
	// Two iterations; the first iteration's event spans 6.5 s of which
	// its children cover 6 s, the second 2.25 s over 2 s of children.
	events := []stageEvent{
		{Stage: obs.StageWalk, Seconds: 1, Examples: 100, AllocBytes: 10},
		{Stage: obs.StageSkipGram, Seconds: 2, Examples: 4000, AllocBytes: 20},
		{Stage: obs.StageCrossPair, Seconds: 3, Examples: 30, AllocBytes: 30},
		{Stage: obs.StageIteration, Seconds: 6.5, AllocBytes: 1},
		{Stage: obs.StageWalk, Seconds: 0.5, Examples: 100, AllocBytes: 10},
		{Stage: obs.StageSkipGram, Seconds: 1.5, Examples: 4000, AllocBytes: 20},
		{Stage: obs.StageIteration, Seconds: 2.25, AllocBytes: 2},
	}
	got := stageAccount(events)
	want := map[obs.Stage]stageTotals{
		obs.StageWalk:      {SelfSeconds: 1.5, Examples: 200, AllocBytes: 20},
		obs.StageSkipGram:  {SelfSeconds: 3.5, Examples: 8000, AllocBytes: 40},
		obs.StageCrossPair: {SelfSeconds: 3, Examples: 30, AllocBytes: 30},
		obs.StageIteration: {SelfSeconds: 0.75, AllocBytes: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stageAccount = %+v\nwant %+v", got, want)
	}
	// A training wall time of 8.75 s: the three leaf shares plus the
	// iteration overhead account for all of it.
	var sum float64
	for _, st := range want {
		sum += share(st.SelfSeconds, 8.75)
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := share(1, 0); got != 0 {
		t.Errorf("share(1, 0) = %v, want 0", got)
	}
	// Two workers over 2 s: 3 busy seconds of 4 leave a quarter idle.
	if got := idleShare([]float64{2, 1}, 2, 2); !near(got, 0.25) {
		t.Errorf("idleShare = %v, want 0.25", got)
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	g := dataset.AppWeekly(dataset.Quick, 1)
	take := func(seed int64) []request {
		s := newSchedule(g, seed)
		out := make([]request, 2000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := take(7), take(7), take(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[r.Endpoint]++
	}
	for i, ep := range endpoints {
		// Each endpoint's share is within 5 points of its mix weight.
		got := float64(counts[ep]) / float64(len(a))
		if want := float64(mixWeights[i]) / 10; math.Abs(got-want) > 0.05 {
			t.Errorf("%s share %.3f, want about %.1f", ep, got, want)
		}
	}
}

func TestRecallOnHandBuiltTable(t *testing.T) {
	approx := [][]string{{"a", "b", "x"}, {"c", "d", "e"}}
	exact := [][]string{{"a", "b", "c"}, {"e", "d", "c"}}
	if got := recallAtK(approx, exact, 3); !near(got, (2.0/3+1)/2) {
		t.Errorf("recallAtK = %v, want %v", got, (2.0/3+1)/2)
	}
	// Points on a circle: each point's nearest neighbours by cosine are
	// the points next to it, which the index must find.
	const n = 64
	table := mat.New(n, 2)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / n
		table.Set(i, 0, math.Cos(a))
		table.Set(i, 1, math.Sin(a))
	}
	idx, err := ann.Build(table, ann.Norms(table), ann.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got, want [][]string
	for i := 0; i < n; i++ {
		cands, _, err := idx.Search(table.Row(i), 1, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range cands {
			names = append(names, strconv.Itoa(c.ID))
		}
		got = append(got, names)
		var truth []string
		for _, j := range []int{i, (i + 1) % n, (i + n - 1) % n} {
			truth = append(truth, strconv.Itoa(j))
		}
		want = append(want, truth)
	}
	if r := recallAtK(got, want, 3); r != 1 {
		t.Errorf("recall on the circle = %v, want 1", r)
	}
}

func TestCollectRequiresExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undefined metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN metric was accepted")
	}
	got, err := collect(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (metricValue{Value: 2, Unit: "ms"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric and
// workload tables and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram %v", doc.PerLayer, perLayer)
	}
}

func TestLatencyLogSortsAndGroups(t *testing.T) {
	l, err := newLatencyLog(4)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	for _, c := range []struct {
		us int
		ep string
	}{{30, epKNN}, {10, epEmbedding}, {40, epInfer}, {20, epKNN}} {
		l.add(time.Duration(c.us)*time.Microsecond, c.ep)
	}
	if !l.full() || l.free() != 0 {
		t.Fatalf("log of 4 after 4 adds: full %v, free %d", l.full(), l.free())
	}
	got := l.sorted()
	for i, want := range []float64{10e-6, 20e-6, 30e-6, 40e-6} {
		if math.Abs(got[i]-want) > 1e-11 {
			t.Errorf("sorted[%d] = %v, want %v", i, got[i], want)
		}
	}
	by := l.byEndpoint()
	if len(by[epKNN]) != 2 || by[epKNN][0] > by[epKNN][1] || len(by[epTranslate]) != 0 {
		t.Errorf("byEndpoint = %v", by)
	}
	if math.Abs(l.total()-100e-6) > 1e-11 {
		t.Errorf("total = %v, want 100e-6", l.total())
	}
}

func TestCPUClockCountsWorkNotSleep(t *testing.T) {
	c0 := cpuNow()
	time.Sleep(200 * time.Millisecond)
	slept := cpuNow() - c0
	if slept > 50*time.Millisecond {
		t.Errorf("sleeping 200ms used %v of CPU time", slept)
	}
	c0, w0 := cpuNow(), time.Now()
	x := 1.0
	for time.Since(w0) < 100*time.Millisecond {
		x = math.Sqrt(x + 1)
	}
	if worked := cpuNow() - c0; worked < 50*time.Millisecond || x == 0 {
		t.Errorf("spinning 100ms of wall time used %v of CPU time", worked)
	}
}
