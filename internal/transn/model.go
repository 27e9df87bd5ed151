package transn

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/par"
	"transn/internal/rngstream"
	"transn/internal/skipgram"
	"transn/internal/walk"
)

// RNG stream kinds. Every random stream consumed during training is
// derived exactly once, as rngstream.Derive(Seed, kind, index...), so
// the full stream layout is auditable from these constants:
//
//	streamInit       (view)            view-embedding initialization
//	streamTranslator (pair, side)      translator parameter init
//	streamWalk       (view, iteration) walk-corpus base seed; walk
//	                                   shards derive (base, shard)
//	streamTrain      (view, iteration) skip-gram base seed; training
//	                                   shards derive (base, shard)
//	streamCross      (pair)            cross-view segment sampling, one
//	                                   persistent stream per pair
//
// No rand.Rand is ever shared between goroutines: each shard and each
// pair step owns its stream. See DESIGN.md §6.
const (
	streamInit int64 = iota
	streamTranslator
	streamWalk
	streamTrain
	streamCross
)

// Model is a trained TransN instance. Construct one with Train.
type Model struct {
	Cfg   Config
	Graph *graph.Graph

	views []*graph.View
	pairs []graph.ViewPair
	// subviews[p] are the paired-subviews (φ'_i, φ'_j) of pairs[p].
	subviews [][2]*graph.View
	// emb[v] holds view v's view-specific node embeddings (local index).
	emb []*skipgram.Model
	// samplers[v] draws negatives inside view v.
	samplers []*skipgram.NegSampler
	// walkers[v] samples single-view paths in view v.
	walkers []walk.Walker
	// subWalkers[p] sample cross-view paths in each paired-subview.
	subWalkers [][2]*walk.Correlated
	// trans[p] = {T_{i→j}, T_{j→i}} for pairs[p].
	trans [][2]*Translator
	// pairRngs[p] is pair p's persistent sampling stream (streamCross).
	pairRngs []*rand.Rand
	// pairWork[p] is pair p's cross-view workspace, reused by every
	// segment the pair samples and trains.
	pairWork []pairWork

	// crossEmbedUpdates gates embedding updates in the cross-view step:
	// during the first iteration only the translators train (warm-up),
	// so embeddings receive gradients through an already-meaningful map.
	crossEmbedUpdates bool

	// tel is the run's resolved telemetry (metric handles looked up
	// once, nil-safe when Cfg.Telemetry is nil).
	tel telemetry

	// nonFinite latches once the iteration guard (finite.go) sees a
	// NaN/Inf loss, translator parameter or sampled embedding value.
	nonFinite bool

	// History records per-iteration mean losses for diagnostics. histMu
	// guards the appends against concurrent Report/FinalLosses readers
	// (e.g. a live diagnostics endpoint polling mid-training); read the
	// field directly only after Train has returned.
	History []IterStats
	histMu  sync.Mutex
}

// IterStats captures one Algorithm 1 iteration's diagnostics.
type IterStats struct {
	Iteration  int
	SingleLoss float64 // mean skip-gram pair loss across views
	CrossLoss  float64 // mean cross-view segment loss across pairs
	// ViewLoss is the per-view mean skip-gram pair loss, indexed like
	// Views() (zero for empty views that trained nothing).
	ViewLoss []float64
	// PairLoss is the per-pair mean cross-view segment loss, indexed
	// like ViewPairs() (nil under the NoCrossView ablation).
	PairLoss []float64
	// Translation and Reconstruction split CrossLoss into its Eq. 11–12
	// and Eq. 13–14 components (means across pairs).
	Translation    float64
	Reconstruction float64
}

// FinalLosses returns the last iteration's per-view single-view losses
// and per-pair cross-view losses, so callers and tests can assert
// convergence without digging through History. Both slices are nil when
// the model has not trained (e.g. loaded via Load).
func (m *Model) FinalLosses() (viewLoss, pairLoss []float64) {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if len(m.History) == 0 {
		return nil, nil
	}
	last := m.History[len(m.History)-1]
	return last.ViewLoss, last.PairLoss
}

// telemetry holds the metric handles a training run writes to. All
// fields are nil-safe: with Cfg.Telemetry unset every method reduces to
// a nil check at a stage boundary, keeping the disabled-path cost
// within the budget of DESIGN.md §7.
type telemetry struct {
	run       *obs.Run
	walkPaths *obs.Counter
	sgPairs   *obs.Counter
	crossSegs *obs.Counter
	segLoss   *obs.Histogram

	lossSingle *obs.Gauge
	lossCross  *obs.Gauge
	lossTrans  *obs.Gauge
	lossRecon  *obs.Gauge
}

func newTelemetry(run *obs.Run) telemetry {
	t := telemetry{run: run}
	if run == nil {
		return t
	}
	t.walkPaths = run.Reg.Counter(obs.MetricWalkPaths)
	t.sgPairs = run.Reg.Counter(obs.MetricSkipgramPairs)
	t.crossSegs = run.Reg.Counter(obs.MetricCrossSegments)
	t.segLoss = run.Reg.Histogram(obs.MetricCrossSegmentLoss,
		[]float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16})
	t.lossSingle = run.Reg.Gauge(obs.MetricLossSingle)
	t.lossCross = run.Reg.Gauge(obs.MetricLossCross)
	t.lossTrans = run.Reg.Gauge(obs.MetricLossTranslation)
	t.lossRecon = run.Reg.Gauge(obs.MetricLossReconstruction)
	return t
}

func (t *telemetry) trace() *obs.Tracer {
	if t.run == nil {
		return nil
	}
	return t.run.Trace
}

// recordPool folds one worker-pool fan-out's timing into the run.
func (t *telemetry) recordPool(st par.Stats) {
	if t.run == nil || len(st.Workers) == 0 {
		return
	}
	samples := make([]obs.WorkerSample, len(st.Workers))
	for i, w := range st.Workers {
		samples[i] = obs.WorkerSample{Worker: w.Worker, Busy: w.Busy, Shards: w.Shards}
	}
	t.run.RecordPool(st.Wall, samples)
}

// emit delivers ev to the Observer callback with the timing fields
// filled from d. Only Train's goroutine calls it, so the callback is
// never invoked concurrently; events from concurrent single-view steps
// are buffered in their viewResult and emitted after the barrier.
func (m *Model) emit(ev obs.TrainEvent, d time.Duration) {
	if m.Cfg.Observer == nil {
		return
	}
	ev.DurationSeconds = d.Seconds()
	if d > 0 && ev.Examples > 0 {
		ev.ExamplesPerSec = float64(ev.Examples) / d.Seconds()
	}
	m.Cfg.Observer(ev)
}

// timedEvent is a stage event held back until it can be emitted in
// order, with the duration emit fills its timing fields from.
type timedEvent struct {
	ev obs.TrainEvent
	d  time.Duration
}

// viewResult is one view's single-view pass: its mean pair loss, the
// number of training pairs applied, and its walk and skip-gram events.
type viewResult struct {
	loss   float64
	pairs  int
	events [2]timedEvent
}

// Train runs Algorithm 1 on g and returns the trained model. Each
// iteration runs the single-view steps of all views concurrently, at
// most Cfg.Workers at a time, and each view also shards its walk
// generation across Cfg.Workers goroutines; the cross-view pair steps
// then run one after another in pair order. Views own disjoint
// embedding tables and RNG streams, so training is byte-reproducible
// for a fixed (Seed, Workers). See DESIGN.md §6.
func Train(g *graph.Graph, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:   cfg,
		Graph: g,
		views: g.Views(),
		tel:   newTelemetry(cfg.Telemetry),
	}
	if len(m.views) == 0 {
		return nil, fmt.Errorf("transn: graph has no edge types, nothing to train")
	}
	trainSpan := m.tel.trace().Start(obs.SpanTrain)
	m.initViews()
	if !cfg.NoCrossView {
		m.initPairs()
	}
	if cfg.ModelReady != nil {
		cfg.ModelReady(m)
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		frac := float64(iter) / float64(cfg.Iterations)
		lrS := cfg.LRSingle * (1 - frac)
		if lrS < cfg.LRSingle*1e-4 {
			lrS = cfg.LRSingle * 1e-4
		}
		iterSpan := m.tel.trace().Start(obs.SpanIteration)
		var st IterStats
		st.Iteration = iter
		st.ViewLoss = make([]float64, len(m.views))
		// Single-view passes (Algorithm 1 lines 3–7). A view's pass
		// touches only its own tables, walker, sampler and streams, so
		// the views train concurrently. Their events are emitted after
		// the barrier, in view order.
		results := make([]*viewResult, len(m.views))
		par.Run(cfg.Workers, len(m.views), func(vi int) {
			if m.views[vi].NumNodes() > 0 {
				results[vi] = m.singleViewStep(vi, iter, lrS)
			}
		})
		var sum float64
		var n, iterPairs int
		for vi, r := range results {
			if r == nil {
				continue
			}
			for _, e := range r.events {
				m.emit(e.ev, e.d)
			}
			st.ViewLoss[vi] = r.loss
			sum += r.loss
			iterPairs += r.pairs
			n++
		}
		if n > 0 {
			st.SingleLoss = sum / float64(n)
		}
		if !cfg.NoCrossView && len(m.pairs) > 0 {
			m.crossEmbedUpdates = iter > 0 || cfg.Iterations == 1
			// Pairs that share a view update its embedding rows, so pair
			// steps run one after another in pair order.
			results := make([]crossResult, len(m.pairs))
			m.tel.recordPool(par.RunTimed(1, len(m.pairs), func(pi int) {
				results[pi] = m.crossViewStep(pi, iter)
			}))
			st.PairLoss = make([]float64, len(m.pairs))
			var csum, tsum, rsum float64
			for pi, r := range results {
				st.PairLoss[pi] = r.loss
				csum += r.loss
				tsum += r.translation
				rsum += r.reconstruction
			}
			np := float64(len(m.pairs))
			st.CrossLoss = csum / np
			st.Translation = tsum / np
			st.Reconstruction = rsum / np
		}
		m.histMu.Lock()
		m.History = append(m.History, st)
		m.histMu.Unlock()
		m.tel.lossSingle.Set(st.SingleLoss)
		m.tel.lossCross.Set(st.CrossLoss)
		m.tel.lossTrans.Set(st.Translation)
		m.tel.lossRecon.Set(st.Reconstruction)
		m.emit(obs.TrainEvent{
			Stage: obs.StageIteration, View: -1, Pair: -1, Epoch: iter,
			LSingle: st.SingleLoss, LCross: st.CrossLoss,
			LTranslation: st.Translation, LReconstruction: st.Reconstruction,
			Examples: iterPairs,
		}, iterSpan.End())
		// Shard-merge boundary: every shard's updates are visible, the
		// iteration's losses are merged — the cheap place to notice the
		// run has gone non-finite (see finite.go).
		m.guardIteration(&st)
	}
	trainSpan.End()
	return m, nil
}

// Report builds the run's telemetry report: per-stage wall time,
// counters, gauges, per-worker busy/idle breakdown (all from
// Cfg.Telemetry, empty when it is nil), plus the loss sections filled
// from the model — final per-view L_single, final per-pair L_cross and
// the per-iteration loss curve. cmd/transn writes this as the -report
// file and cmd/benchrun embeds the same shape.
// Report is safe to call while Train is still running (History access
// is synchronized) — the live diagnostics endpoint does exactly that.
func (m *Model) Report() *obs.Report {
	rep := m.Cfg.Telemetry.Report("train")
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if len(m.History) == 0 {
		return rep
	}
	last := m.History[len(m.History)-1]
	for vi := range m.views {
		if vi < len(last.ViewLoss) && m.views[vi].NumNodes() > 0 {
			rep.Views = append(rep.Views, obs.ViewReport{View: vi, LSingle: last.ViewLoss[vi]})
		}
	}
	for pi, pr := range m.pairs {
		if pi < len(last.PairLoss) {
			rep.Pairs = append(rep.Pairs, obs.PairReport{Pair: pi, I: pr.I, J: pr.J, LCross: last.PairLoss[pi]})
		}
	}
	for _, st := range m.History {
		rep.Iterations = append(rep.Iterations, obs.IterationReport{
			Iteration: st.Iteration,
			LSingle:   st.SingleLoss,
			LCross:    st.CrossLoss,
			ViewLoss:  st.ViewLoss,
			PairLoss:  st.PairLoss,
		})
	}
	return rep
}

// initViews builds per-view embeddings, negative samplers and walkers.
// Each view's embedding table is initialized from its own derived
// stream (streamInit, view) — never from a generator shared with the
// training loop — so initialization is identical no matter how many
// workers later train.
func (m *Model) initViews() {
	m.emb = make([]*skipgram.Model, len(m.views))
	m.samplers = make([]*skipgram.NegSampler, len(m.views))
	m.walkers = make([]walk.Walker, len(m.views))
	for i, v := range m.views {
		if v.NumNodes() == 0 {
			continue
		}
		m.emb[i] = skipgram.NewModel(v.NumNodes(), m.Cfg.Dim, rngstream.New(m.Cfg.Seed, streamInit, int64(i)))
		freq := make([]float64, v.NumNodes())
		for l := range freq {
			freq[l] = v.WeightedDegree(l)
		}
		m.samplers[i] = skipgram.NewNegSampler(freq)
		if m.Cfg.SimpleWalk {
			m.walkers[i] = walk.Simple{}
		} else {
			m.walkers[i] = walk.NewCorrelated(v)
		}
	}
}

// initPairs builds view-pairs, paired-subviews, their walkers, the two
// translators per pair, and each pair's private sampling stream.
func (m *Model) initPairs() {
	m.pairs = m.Graph.ViewPairs()
	m.subviews = make([][2]*graph.View, len(m.pairs))
	m.subWalkers = make([][2]*walk.Correlated, len(m.pairs))
	m.trans = make([][2]*Translator, len(m.pairs))
	m.pairRngs = make([]*rand.Rand, len(m.pairs))
	m.pairWork = make([]pairWork, len(m.pairs))
	for p, pr := range m.pairs {
		si := graph.PairedSubview(m.views[pr.I], pr.Common)
		sj := graph.PairedSubview(m.views[pr.J], pr.Common)
		m.subviews[p] = [2]*graph.View{si, sj}
		m.subWalkers[p] = [2]*walk.Correlated{walk.NewCorrelated(si), walk.NewCorrelated(sj)}
		m.trans[p] = [2]*Translator{
			NewTranslator(m.Cfg.Encoders, m.Cfg.CrossPathLen, m.Cfg.SimpleTranslator, m.Cfg.LRCross,
				rngstream.New(m.Cfg.Seed, streamTranslator, int64(p), 0)),
			NewTranslator(m.Cfg.Encoders, m.Cfg.CrossPathLen, m.Cfg.SimpleTranslator, m.Cfg.LRCross,
				rngstream.New(m.Cfg.Seed, streamTranslator, int64(p), 1)),
		}
		m.pairRngs[p] = rngstream.New(m.Cfg.Seed, streamCross, int64(p))
		m.pairWork[p] = newPairWork(m.Cfg.CrossPathLen, m.Cfg.Dim, m.Cfg.CrossPathsPerPair)
	}
}

// singleViewStep runs one skip-gram pass over fresh walks from view vi
// (Algorithm 1 lines 3–7) and returns its mean pair loss, the number of
// training pairs applied and its StageWalk / StageSkipGram events, for
// Train to emit. Walk generation shards start nodes across the pool
// under the per-iteration base stream (streamWalk, vi, iter); training
// shards the resulting corpus under (streamTrain, vi, iter). Both
// phases are traced as "walk" / "skipgram" spans. It touches no state
// of another view, so Train runs the views' steps concurrently.
func (m *Model) singleViewStep(vi, iter int, lr float64) *viewResult {
	v := m.views[vi]
	cfg := walk.CorpusConfig{
		WalkLength:      m.Cfg.WalkLength,
		MinWalksPerNode: m.Cfg.MinWalksPerNode,
		MaxWalksPerNode: m.Cfg.MaxWalksPerNode,
	}
	walkSeed := rngstream.Derive(m.Cfg.Seed, streamWalk, int64(vi), int64(iter))
	trainSeed := rngstream.Derive(m.Cfg.Seed, streamTrain, int64(vi), int64(iter))
	walkSpan := m.tel.trace().Start(obs.SpanWalk)
	var paths [][]int
	if m.Cfg.SimpleWalk {
		// Ablation: uniformly random starting nodes, weights ignored.
		// Start nodes are a single sequential draw, so this path stays
		// serial; the subsequent training pass still shards.
		rng := rngstream.New(walkSeed)
		total := 0
		for l := 0; l < v.NumNodes(); l++ {
			total += cfg.WalksFor(v.Degree(l))
		}
		for i := 0; i < total; i++ {
			p := m.walkers[vi].Walk(v, rng.Intn(v.NumNodes()), cfg.WalkLength, rng)
			if len(p) >= 2 {
				paths = append(paths, p)
			}
		}
	} else {
		var wst par.Stats
		paths, wst = walk.CorpusParallelStats(v, m.walkers[vi], cfg, walkSeed, m.Cfg.Workers)
		m.tel.recordPool(wst)
	}
	m.tel.walkPaths.Add(int64(len(paths)))
	r := &viewResult{}
	r.events[0] = timedEvent{obs.TrainEvent{
		Stage: obs.StageWalk, View: vi, Pair: -1, Epoch: iter, Examples: len(paths),
	}, walkSpan.End()}

	offsets := skipgram.ContextOffsets(v.Hetero)
	sgSpan := m.tel.trace().Start(obs.SpanSkipGram)
	var sst par.Stats
	r.loss, r.pairs, sst = m.emb[vi].TrainCorpusParallelStats(paths, offsets, m.Cfg.NegativeSamples, lr,
		m.samplers[vi], trainSeed, m.Cfg.Workers)
	m.tel.recordPool(sst)
	m.tel.sgPairs.Add(int64(r.pairs))
	r.events[1] = timedEvent{obs.TrainEvent{
		Stage: obs.StageSkipGram, View: vi, Pair: -1, Epoch: iter,
		LSingle: r.loss, Examples: r.pairs,
	}, sgSpan.End()}
	return r
}

// Embeddings returns the final node embeddings: one row per global node,
// each the average of the node's view-specific embeddings (Section
// III-C). Nodes absent from every view get a zero row.
func (m *Model) Embeddings() *mat.Dense {
	out := mat.New(m.Graph.NumNodes(), m.Cfg.Dim)
	counts := make([]int, m.Graph.NumNodes())
	for vi, v := range m.views {
		if m.emb[vi] == nil {
			continue
		}
		for l := 0; l < v.NumNodes(); l++ {
			gid := v.Global(l)
			row := out.Row(int(gid))
			src := m.emb[vi].In.Row(l)
			for d := range row {
				row[d] += src[d]
			}
			counts[gid]++
		}
	}
	for i, c := range counts {
		if c > 1 {
			row := out.Row(i)
			inv := 1 / float64(c)
			for d := range row {
				row[d] *= inv
			}
		}
	}
	return out
}

// ViewEmbedding exposes view vi's view-specific embedding of global node
// id, or nil when the node is not in the view. Used by tests and by the
// cross-view inspection tooling.
func (m *Model) ViewEmbedding(vi int, id graph.NodeID) []float64 {
	v := m.views[vi]
	l := v.Local(id)
	if l < 0 || m.emb[vi] == nil {
		return nil
	}
	return m.emb[vi].In.Row(l)
}

// ViewTable returns view vi's raw view-specific embedding table (one
// row per view-local node), or nil for empty views. The returned matrix
// is the live training table, not a copy: internal/diag reads it to
// compute norm distributions and collapse checks, and tests write to it
// to inject corruption — never mutate it while Train is running.
func (m *Model) ViewTable(vi int) *mat.Dense {
	if m.emb[vi] == nil {
		return nil
	}
	return m.emb[vi].In
}

// Views returns the model's views (one per edge type).
func (m *Model) Views() []*graph.View { return m.views }

// ViewPairs returns the view-pairs the cross-view algorithm trained on
// (empty under the NoCrossView ablation).
func (m *Model) ViewPairs() []graph.ViewPair { return m.pairs }

// Translators returns the translator pair {T_i→j, T_j→i} for pair index
// p, or nil under the NoCrossView ablation.
func (m *Model) Translators(p int) [2]*Translator {
	if m.trans == nil {
		return [2]*Translator{}
	}
	return m.trans[p]
}
