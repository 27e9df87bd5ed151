package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"

	"transn/internal/mat"
	"transn/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; TestMetricTablesMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_cpu_s", "s"},
	{"macro_f1", "ratio"},
	{"peak_heap_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"recall_at_10", "ratio"},
}

// trainStages are the training stages with per-layer metrics, with the
// name of each stage's work count.
var trainStages = []struct {
	Stage obs.Stage
	Rate  string
}{
	{obs.StageWalk, "walks_per_s"},
	{obs.StageSkipGram, "pairs_per_s"},
	{obs.StageCrossPair, "segments_per_s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.load_ms", "ms"},
		{"transn.init_ms", "ms"},
		{"train.wall_s", "s"},
	}
	for _, st := range trainStages {
		s := string(st.Stage)
		defs = append(defs,
			metricDef{s + ".self_s", "s"},
			metricDef{s + ".share", "ratio"},
			metricDef{s + "." + st.Rate, "1/s"},
			metricDef{s + ".alloc_mb", "MB"},
		)
	}
	defs = append(defs,
		metricDef{"par.idle_share", "ratio"},
		metricDef{"ann.build_ms", "ms"},
		metricDef{"snapfmt.pack_ms", "ms"},
		metricDef{"serve.new_ms", "ms"},
	)
	for _, ep := range endpoints {
		defs = append(defs,
			metricDef{ep + ".p50_us", "us"},
			metricDef{ep + ".p99_us", "us"},
			metricDef{ep + ".share", "ratio"},
		)
	}
	for _, st := range obs.TraceStages() {
		defs = append(defs, metricDef{"stage." + string(st) + "_us", "us"})
	}
	return append(defs,
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"ann.dist_evals_per_search", "count"},
		metricDef{"ann.search_us", "us"},
		metricDef{"transn.translate_us", "us"},
		metricDef{"transn.infer_us", "us"},
		metricDef{"reload.p50_ms", "ms"},
		metricDef{"reload.count", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.alloc_kb_per_req", "KB"},
		metricDef{"obs.trace_overhead", "ratio"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect checks that vals holds exactly the metrics in defs, each
// finite, and attaches their units.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	return out, nil
}

// checksum fingerprints a table bit for bit.
func checksum(m *mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.Data {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Indices into usage.samples.
const (
	rtHeapLive = iota
	rtHeapAllocs
	rtGCCPU
	rtTotalCPU
)

type rtReading struct {
	heapLive, heapAllocs uint64
	gcCPU, totalCPU      float64
}

// usage reads the runtime's heap and CPU counters. It tracks the peak
// live heap over every sample and accumulates GC and total CPU time
// over the measured intervals that begin and end bracket.
type usage struct {
	samples  []metrics.Sample
	peakLive uint64
	open     rtReading

	gcCPU, totalCPU float64
}

func newUsage() *usage {
	return &usage{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// sample reads the runtime and raises the live-heap peak.
func (u *usage) sample() rtReading {
	metrics.Read(u.samples)
	r := rtReading{
		heapLive:   u.samples[rtHeapLive].Value.Uint64(),
		heapAllocs: u.samples[rtHeapAllocs].Value.Uint64(),
		gcCPU:      u.samples[rtGCCPU].Value.Float64(),
		totalCPU:   u.samples[rtTotalCPU].Value.Float64(),
	}
	if r.heapLive > u.peakLive {
		u.peakLive = r.heapLive
	}
	return r
}

// begin and end bracket one measured interval.
func (u *usage) begin() { u.open = u.sample() }

func (u *usage) end() {
	r := u.sample()
	u.gcCPU += r.gcCPU - u.open.gcCPU
	u.totalCPU += r.totalCPU - u.open.totalCPU
}
