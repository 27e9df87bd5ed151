// Command e2ebench is the repository's benchmark: one command that runs
// a named workload through both pipelines — training (graph → walk →
// skip-gram → cross-view → freeze) and serving (pack → open → decode →
// snapshot pin → cache/coalesce → forward or ANN → encode) — checks
// every output, and prints its metrics as one JSON line. See README.md
// for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"transn/internal/graph"
	"transn/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: train-sgns or serve-reload")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and the request stream")
	seconds := fs.Int("seconds", 10, "measured time budget of one run, in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times, one process each, and print each metric's spread")
	sameSeed := fs.Bool("same-seed", false, "with -repeat, give every run the same seed and require identical fingerprints")
	workDir := fs.String("workdir", ".bench_build", "directory for the run's generated files (relative to the current directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *repeat > 0 {
		return repeatMode(w, *seed, *seconds, *trace, *repeat, *sameSeed, *workDir)
	}
	info, res, err := runWorkload(w, *seed, *seconds, *trace == 1, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.Name, err)
		return 1
	}
	if err := printLines(os.Stdout, map[string]any{"info": info}, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func printLines(f *os.File, lines ...any) error {
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// servePs is GOMAXPROCS during the serving phase.
const servePs = 1

// runInfo is printed on the line before the result: what ran, where,
// and the fingerprint that must repeat for the seed.
type runInfo struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Trace      bool        `json:"trace"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	ServePs    int         `json:"serve_gomaxprocs"`
	GoVersion  string      `json:"go"`
	Commit     string      `json:"commit"`
	TrainReps  int         `json:"train_reps"`
	Requests   int         `json:"requests"`
	Reloads    int         `json:"reloads"`
	Errors     []string    `json:"errors,omitempty"`
	Spans      string      `json:"spans,omitempty"`
	Print      fingerprint `json:"fingerprint"`

	// TrainWall is the median wall time of the untraced training runs
	// and ServeOffCPU the share of the measured requests' wall time the
	// process spent off the CPU (stolen by the host, mostly): together
	// they show how far wall-clock timings would have moved.
	TrainWall   float64 `json:"train_wall_s"`
	ServeOffCPU float64 `json:"serve_off_cpu_share"`
}

// fingerprint holds every output that must be identical across runs of
// one seed, traced or not.
type fingerprint struct {
	Embedding     string  `json:"embedding_fnv64"`
	MacroF1       float64 `json:"macro_f1"`
	RecallAt10    float64 `json:"recall_at_10"`
	DistEvals     float64 `json:"ann_dist_evals_per_search"`
	Walks         int     `json:"walks"`
	SkipgramPairs int     `json:"skipgram_pairs"`
	CrossSegments int     `json:"cross_segments"`
}

func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// runWorkload runs w once and returns its info line and result.
func runWorkload(w workload, seed int64, seconds int, trace bool, workDir string) (*runInfo, *result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	info := &runInfo{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	var sp *spans
	if trace {
		sp = newSpans()
	}
	u := newUsage()
	errs := &errCount{}
	vals := map[string]float64{}
	correct := true
	budget := time.Duration(seconds) * time.Second

	// The program receives only files: the generated graph as TSV.
	graphPath := filepath.Join(dir, "graph.tsv")
	if err := writeGraph(graphPath, w.Graph(seed)); err != nil {
		return nil, nil, err
	}

	// Training, and serving the first run's model. Every workload trains
	// until the budget has elapsed, at least minTrainReps times, and
	// after each training run serves for ServeShare times as long as
	// that run took: the untraced server after an untraced run, the
	// traced one after a traced run. Training and serving are thus both
	// sampled across the whole run, and a slow spell of the machine
	// weighs on both alike.
	var sv *serving
	defer func() {
		if sv != nil {
			sv.close()
		}
	}()
	afterTrain := func(r *trainRep) error {
		if sv == nil {
			var err error
			if sv, err = startServing(r.model, r.graph, graphPath, dir, seed, w, budget.Seconds(), trace, u, errs, sp); err != nil {
				return err
			}
		}
		d := time.Duration(w.ServeShare * float64(r.total()))
		if r.traced {
			return sv.traced.serve(d, false)
		}
		return sv.plain.serve(d, true)
	}
	reps, err := trainPhase(w, graphPath, seed, budget, trace, u, sp, afterTrain)
	if err != nil {
		return nil, nil, err
	}
	info.TrainReps = len(reps)
	first := reps[0]
	for _, r := range reps {
		errs.check(r.finiteErr)
		if err := sameTraining(first, r); err != nil {
			correct = false
			errs.first = append(errs.first, "determinism: "+err.Error())
		}
	}
	var setups, trains, tracedTrains, walls []float64
	for _, r := range reps {
		setups = append(setups, r.setupCPU.Seconds())
		if r.traced {
			tracedTrains = append(tracedTrains, r.trainCPU.Seconds())
		} else {
			trains = append(trains, r.trainCPU.Seconds())
			walls = append(walls, r.train.Seconds())
		}
	}
	info.TrainWall = median(walls)
	f1, err := macroF1(first.model)
	if err != nil {
		return nil, nil, err
	}
	if err := sv.finish(); err != nil {
		return nil, nil, err
	}
	info.ServePs = servePs
	evals, searchUS, err := searchCost(sv.index, first.model.Embeddings(), sv.queries)
	if err != nil {
		return nil, nil, err
	}
	info.Print = fingerprint{
		Embedding: fmt.Sprintf("%016x", first.embSum), MacroF1: f1, RecallAt10: sv.recall, DistEvals: evals,
		Walks: first.walks, SkipgramPairs: first.pairs, CrossSegments: first.segments,
	}
	plain, traced, packs := sv.plain, sv.traced, sv.packs
	info.Requests, info.Reloads = plain.requests(), len(plain.reloads)
	info.ServeOffCPU = plain.offCPUShare()

	if !trace {
		setup := packMedian(packs, (*packRep).setup)
		if w.Primary == phaseTrain {
			setup = median(setups)
		}
		lat := plain.log.sorted()
		vals["setup_s"] = setup
		vals["train_cpu_s"] = median(trains)
		vals["macro_f1"] = f1
		vals["peak_heap_mb"] = float64(u.peakLive) / 1e6
		vals["throughput_rps"] = plain.throughput()
		vals["p50_ms"] = orderStat(lat, 0.50) * 1e3
		vals["p99_ms"] = orderStat(lat, 0.99) * 1e3
		vals["recall_at_10"] = sv.recall
	} else {
		trainLayers(reps, w.Train.Workers, vals)
		vals["ann.build_ms"] = packMedian(packs, func(p *packRep) time.Duration { return p.annBuild }) * 1e3
		vals["snapfmt.pack_ms"] = packMedian(packs, func(p *packRep) time.Duration { return p.pack }) * 1e3
		vals["serve.new_ms"] = packMedian(packs, func(p *packRep) time.Duration { return p.newServer }) * 1e3
		serveLayers(plain, vals)
		stages, n, err := sv.cl.stageMeans(traced.since)
		if err != nil {
			return nil, nil, err
		}
		if n != traced.requests() {
			return nil, nil, fmt.Errorf("trace ring holds %d of %d measured requests", n, traced.requests())
		}
		for _, st := range obs.TraceStages() {
			vals["stage."+string(st)+"_us"] = stages[string(st)]
		}
		frozen, err := first.model.Freeze()
		if err != nil {
			return nil, nil, err
		}
		tUS, iUS, err := forwardCost(frozen, first.graph, seed, 200)
		if err != nil {
			return nil, nil, err
		}
		vals["ann.dist_evals_per_search"] = evals
		vals["ann.search_us"] = searchUS
		vals["transn.translate_us"] = tUS
		vals["transn.infer_us"] = iUS
		vals["runtime.gc_cpu_share"] = share(u.gcCPU, u.totalCPU)
		vals["runtime.alloc_kb_per_req"] = share(float64(plain.allocBytes), float64(plain.requests())) / 1024
		// Traced over untraced, minus one: 0 means tracing costs nothing.
		// The ratio is of the workload's primary number, train_cpu_s or
		// handler CPU time per request.
		overhead := share(traced.perRequest(), plain.perRequest()) - 1
		if w.Primary == phaseTrain {
			overhead = share(median(tracedTrains), median(trains)) - 1
		}
		vals["obs.trace_overhead"] = overhead
		info.Spans = filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
		if err := sp.write(info.Spans); err != nil {
			return nil, nil, err
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		return nil, nil, err
	}
	info.Errors = errs.first
	return info, &result{
		Correct:   correct && errs.failed == 0,
		Attempted: errs.attempted,
		Failed:    errs.failed,
		Metrics:   metrics,
	}, nil
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Store(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeatMode runs the workload n times, each in its own process, and
// prints every metric's median, quartiles, range and spread (the
// quartile distance as a share of the median). Without sameSeed run i
// gets seed+i, as a comparison across seeds does; with it every run
// gets seed and their fingerprints must be identical.
func repeatMode(w workload, seed int64, seconds, trace, n int, sameSeed bool, workDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	var runs []*result
	var infos []runInfo
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		if sameSeed {
			s = seed
		}
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(s),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-workdir", workDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		info, res, perr := parseRun(out)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: run %d (seed %d): %v %v\n", i, s, err, perr)
			return 1
		}
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d train_wall_s=%.4g serve_off_cpu_share=%.4f fingerprint=%+v\n",
			i, s, res.Correct, res.Attempted, res.Failed, info.TrainWall, info.ServeOffCPU, info.Print)
		b, _ := json.Marshal(res.Metrics)
		fmt.Printf("run %d seed %d: metrics=%s\n", i, s, b)
		runs = append(runs, res)
		infos = append(infos, *info)
	}
	fmt.Printf("%s trace=%d seconds=%d runs=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.Name, trace, seconds, n, infos[0].NumCPU, infos[0].GOMAXPROCS, infos[0].GoVersion, infos[0].Commit)
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("%-28s %-6s %14s %14s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "spread")
	for _, d := range defs {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[d.Name].Value)
		}
		s := sortedCopy(xs)
		q1, q3 := quartiles(xs)
		med := median(xs)
		fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f\n",
			d.Name, d.Unit, med, q1, q3, s[0], s[len(s)-1], share(q3-q1, med))
	}
	status := 0
	for i, r := range runs {
		if !r.Correct {
			fmt.Printf("run %d: incorrect\n", i)
			status = 1
		}
		if sameSeed && infos[i].Print != infos[0].Print {
			fmt.Printf("run %d: fingerprint %+v differs from run 0 %+v\n", i, infos[i].Print, infos[0].Print)
			status = 1
		}
	}
	return status
}

// parseRun reads a child run's info and result lines, the last two
// lines of its output.
func parseRun(out []byte) (*runInfo, *result, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return nil, nil, errors.New("no result line")
	}
	var info struct {
		Info runInfo `json:"info"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, err
	}
	return &info.Info, &res, nil
}
