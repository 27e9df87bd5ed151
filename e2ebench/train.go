package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"transn/internal/eval"
	"transn/internal/graph"
	"transn/internal/obs"
	"transn/internal/transn"
)

// trainRep is one training run: graph.Load of the TSV, then Train.
type trainRep struct {
	traced bool
	// load and init split set-up: graph.Load, then Train up to its
	// ModelReady callback. train runs from ModelReady until Train
	// returns. All three are wall time; setupCPU and trainCPU are the
	// process CPU time of the same two stretches.
	load, init, train  time.Duration
	setupCPU, trainCPU time.Duration

	embSum                 uint64
	walks, pairs, segments int
	finiteErr              error
	model                  *transn.Model
	graph                  *graph.Graph

	// Traced runs only: the stage event stream and per-worker busy time.
	events []stageEvent
	busy   []float64
}

// total is the run's wall time.
func (r *trainRep) total() time.Duration { return r.load + r.init + r.train }

// trainOnce loads the TSV at path and trains on it. A traced run
// attaches Config.Telemetry (stage timings and worker busy time) and
// attributes heap allocation to stages at every Observer event. Every
// run samples the live heap at each event.
func trainOnce(path string, cfg transn.Config, traced bool, u *usage, sp *spans) (*trainRep, error) {
	rep := &trainRep{traced: traced}
	span := sp.start("train.rep")
	defer sp.end(span)
	t0, c0 := time.Now(), cpuNow()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	g, err := graph.Load(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	loaded := time.Now()
	var ready time.Time
	var readyCPU time.Duration
	var lastAlloc uint64
	cfg.ModelReady = func(*transn.Model) {
		ready, readyCPU = time.Now(), cpuNow()
		lastAlloc = u.sample().heapAllocs
	}
	cfg.Observer = func(ev obs.TrainEvent) {
		if ev.Stage == obs.StageDiagnostic {
			return
		}
		r := u.sample()
		switch ev.Stage {
		case obs.StageWalk:
			rep.walks += ev.Examples
		case obs.StageSkipGram:
			rep.pairs += ev.Examples
		case obs.StageCrossPair:
			rep.segments += ev.Examples
		}
		if traced {
			rep.events = append(rep.events, stageEvent{
				Stage: ev.Stage, Seconds: ev.DurationSeconds, Examples: ev.Examples,
				AllocBytes: r.heapAllocs - lastAlloc,
			})
			lastAlloc = r.heapAllocs
		}
	}
	if traced {
		cfg.Telemetry = obs.NewRun()
	}
	m, err := transn.Train(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	done, doneCPU := time.Now(), cpuNow()
	rep.load, rep.init, rep.train = loaded.Sub(t0), ready.Sub(loaded), done.Sub(ready)
	rep.setupCPU, rep.trainCPU = readyCPU-c0, doneCPU-readyCPU
	sp.record("graph.load", span, t0, loaded)
	sp.record("transn.init", span, loaded, ready)
	sp.record("transn.train", span, ready, done)
	for _, w := range cfg.Telemetry.WorkerSummaries() {
		rep.busy = append(rep.busy, w.BusySeconds)
	}
	rep.model, rep.graph = m, g
	rep.finiteErr = m.CheckFinite()
	rep.embSum = checksum(m.Embeddings())
	return rep, nil
}

// minTrainReps is the fewest training runs a benchmark run makes:
// enough for the in-run determinism guard to compare and for train_cpu_s to
// be a median.
const minTrainReps = 3

// trainPhase runs Train until budget has elapsed and at least
// minTrainReps runs are done, calling after, when it is not nil, after
// each. In a traced run the runs alternate untraced and traced,
// starting untraced, so the phase yields both its per-layer numbers and
// its tracing overhead. Only the first run keeps its model and graph:
// the others must repeat it exactly, and dropping them keeps them out
// of the live heap.
func trainPhase(w workload, path string, seed int64, budget time.Duration, trace bool, u *usage, sp *spans, after func(*trainRep) error) ([]*trainRep, error) {
	cfg := w.Train
	cfg.Seed = seed
	var reps []*trainRep
	start := time.Now()
	for i := 0; i < minTrainReps || time.Since(start) < budget; i++ {
		traced := trace && i%2 == 1
		if !traced {
			u.begin()
		}
		rep, err := trainOnce(path, cfg, traced, u, sp)
		if err != nil {
			return nil, err
		}
		if !traced {
			u.end()
		}
		if i > 0 {
			rep.model, rep.graph = nil, nil
		}
		reps = append(reps, rep)
		if after != nil {
			if err := after(rep); err != nil {
				return nil, err
			}
		}
	}
	return reps, nil
}

// sameTraining reports the first way two runs of one seed differ:
// embeddings and work counts must repeat exactly, traced or not.
func sameTraining(a, b *trainRep) error {
	switch {
	case a.embSum != b.embSum:
		return fmt.Errorf("embedding checksum %016x != %016x", a.embSum, b.embSum)
	case a.walks != b.walks:
		return fmt.Errorf("walk count %d != %d", a.walks, b.walks)
	case a.pairs != b.pairs:
		return fmt.Errorf("skip-gram pair count %d != %d", a.pairs, b.pairs)
	case a.segments != b.segments:
		return fmt.Errorf("cross-view segment count %d != %d", a.segments, b.segments)
	}
	return nil
}

// macroF1 scores the final table by node classification on a fixed
// split seed, so the value depends on the model alone. Half the labeled
// nodes are held out (the paper holds out a tenth) so the test set is
// large enough that the score moves with the model, not the split.
func macroF1(m *transn.Model) (float64, error) {
	f1, _, err := eval.NodeClassification(m.Embeddings(), m.Graph, 0.5, 10, rand.New(rand.NewSource(1)))
	return f1, err
}

// trainLayers computes the training per-layer metrics from the traced
// runs: stage self time, share of the training wall time, work rate and
// allocation, averaged over the traced runs, and the pool's idle share.
// The set-up layers and the training wall time are medians over all
// runs.
func trainLayers(reps []*trainRep, workers int, vals map[string]float64) {
	var loads, inits, walls []float64
	var traced []*trainRep
	for _, r := range reps {
		loads = append(loads, r.load.Seconds()*1e3)
		inits = append(inits, r.init.Seconds()*1e3)
		walls = append(walls, r.train.Seconds())
		if r.traced {
			traced = append(traced, r)
		}
	}
	vals["graph.load_ms"] = median(loads)
	vals["transn.init_ms"] = median(inits)
	vals["train.wall_s"] = median(walls)
	n := float64(len(traced))
	for _, st := range trainStages {
		s := string(st.Stage)
		for _, k := range []string{".self_s", ".share", "." + st.Rate, ".alloc_mb"} {
			vals[s+k] = 0
		}
		for _, r := range traced {
			tot := stageAccount(r.events)[st.Stage]
			vals[s+".self_s"] += tot.SelfSeconds / n
			vals[s+".share"] += share(tot.SelfSeconds, r.train.Seconds()) / n
			vals[s+"."+st.Rate] += share(float64(tot.Examples), tot.SelfSeconds) / n
			vals[s+".alloc_mb"] += float64(tot.AllocBytes) / 1e6 / n
		}
	}
	vals["par.idle_share"] = 0
	for _, r := range traced {
		vals["par.idle_share"] += idleShare(r.busy, workers, r.train.Seconds()) / n
	}
}
