package transn

import (
	"math/rand"

	"transn/internal/autodiff"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/walk"
)

// crossResult is one pair step's diagnostics: mean segment losses
// (total and the translation/reconstruction components) and the number
// of common-node segments trained.
type crossResult struct {
	loss           float64
	translation    float64
	reconstruction float64
	segments       int
}

// pairWork is one view-pair's cross-view workspace. Every segment of a
// pair records the same op graph for a fixed (λ, H, L, d), so one tape
// and one set of segment buffers serve them all: once the first
// segments have grown the tape and the walk buffers, sampling and
// trainSegment allocate nothing.
type pairWork struct {
	tp autodiff.Tape
	// A and Atgt (L×d) hold a segment's src- and dst-view embedding
	// rows; srcLoc and dstLoc the rows' local indices in each view.
	A, Atgt        *mat.Dense
	srcLoc, dstLoc []int
	// path and probs are the walker's buffers: one walk's local
	// nodes and its π₁·π₂ step weights.
	path  []int
	probs []float64
	// shared collects one walk's common nodes; segIDs backs the sampled
	// segments, which are consecutive L-long windows of it.
	shared []graph.NodeID
	segIDs []graph.NodeID
	segs   [][]graph.NodeID
}

// newPairWork returns a workspace for segments of pathLen nodes in
// dim-dimensional views, at most perPair of them per sampling call.
func newPairWork(pathLen, dim, perPair int) pairWork {
	return pairWork{
		A:      mat.New(pathLen, dim),
		Atgt:   mat.New(pathLen, dim),
		srcLoc: make([]int, pathLen),
		dstLoc: make([]int, pathLen),
		segIDs: make([]graph.NodeID, 0, pathLen*perPair),
	}
}

// crossViewStep runs one cross-view pass for view-pair pi (Algorithm 1
// lines 8–12): it samples common-node path segments from both
// paired-subviews and optimizes the translation tasks T1/T2 (Eqs. 11–12)
// and reconstruction tasks R1/R2 (Eqs. 13–14). It returns the mean
// segment losses. Segments are sampled from pair pi's private stream;
// segment losses accumulate in a local histogram view flushed once at
// the end of the step.
func (m *Model) crossViewStep(pi, iter int) crossResult {
	span := m.tel.trace().Start(obs.SpanCrossPair)
	segLoss := m.tel.segLoss.Local()
	pr := m.pairs[pi]
	rng := m.pairRngs[pi]
	var res crossResult
	// Side 0: paths from φ'_i, translator T_{i→j} forward; side 1: the
	// dual direction.
	for side := 0; side < 2; side++ {
		src, dst := pr.I, pr.J
		fwd, bwd := m.trans[pi][0], m.trans[pi][1]
		if side == 1 {
			src, dst = pr.J, pr.I
			fwd, bwd = m.trans[pi][1], m.trans[pi][0]
		}
		segs := m.sampleCommonSegments(pi, side, rng)
		for _, seg := range segs {
			total, trans, recon := m.trainSegment(&m.pairWork[pi], seg, src, dst, fwd, bwd)
			res.loss += total
			res.translation += trans
			res.reconstruction += recon
			segLoss.Observe(total)
			res.segments++
		}
	}
	segLoss.Flush()
	if res.segments > 0 {
		inv := 1 / float64(res.segments)
		res.loss *= inv
		res.translation *= inv
		res.reconstruction *= inv
	}
	m.tel.crossSegs.Add(int64(res.segments))
	m.emit(obs.TrainEvent{
		Stage: obs.StageCrossPair, View: -1, Pair: pi, Epoch: iter,
		LCross: res.loss, LTranslation: res.translation, LReconstruction: res.reconstruction,
		Examples: res.segments,
	}, span.End())
	return res
}

// sampleCommonSegments samples walks from the paired-subview of the given
// side, removes nodes not shared by both subviews (Section III-B1), and
// cuts the remainder into segments of exactly CrossPathLen global IDs.
// It keeps sampling until CrossPathsPerPair segments are collected or a
// sampling budget is exhausted (sparse overlaps may not support the full
// quota). The segments live in pair pi's workspace and are valid until
// the pair's next call.
func (m *Model) sampleCommonSegments(pi, side int, rng *rand.Rand) [][]graph.NodeID {
	sub := m.subviews[pi][side]
	other := m.subviews[pi][1-side]
	walker := m.subWalkers[pi][side]
	want := m.Cfg.CrossPathsPerPair
	L := m.Cfg.CrossPathLen
	if sub.NumNodes() == 0 {
		return nil
	}
	w := &m.pairWork[pi]
	segIDs, segs := w.segIDs[:0], w.segs[:0]
	budget := want * 8
	for len(segs) < want && budget > 0 {
		budget--
		start := rng.Intn(sub.NumNodes())
		w.path, w.probs = walker.AppendWalk(w.path[:0], w.probs, sub, start, m.Cfg.WalkLength, rng)
		// Keep only nodes present in both subviews.
		shared := w.shared[:0]
		for _, l := range w.path {
			gid := sub.Global(l)
			if other.Contains(gid) {
				shared = append(shared, gid)
			}
		}
		w.shared = shared
		for len(shared) >= L && len(segs) < want {
			n := len(segIDs)
			segIDs = append(segIDs, shared[:L]...)
			segs = append(segs, segIDs[n:n+L:n+L])
			shared = shared[L:]
		}
	}
	w.segIDs, w.segs = segIDs, segs
	return segs
}

// trainSegment optimizes the dual-learning objective on one segment of
// common nodes: translation src→dst scored against the dst-view
// embeddings of the same nodes, plus reconstruction src→dst→src scored
// against the original src-view embeddings. Gradients update both
// translators (Adam) and the touched embedding rows in both views (SGD
// with γ_cross), matching Θ_cross of Algorithm 1. It returns the
// segment's combined loss and its translation (Eqs. 11–12) and
// reconstruction (Eqs. 13–14) components; a disabled task contributes
// zero. seg has CrossPathLen nodes; its tape and buffers are w's,
// reused segment after segment.
//
// Allocation-free in steady state; pinned by TestTrainSegmentAllocFree.
func (m *Model) trainSegment(w *pairWork, seg []graph.NodeID, src, dst int, fwd, bwd *Translator) (total, transLoss, reconLoss float64) {
	srcView, dstView := m.views[src], m.views[dst]
	srcEmb, dstEmb := m.emb[src], m.emb[dst]

	// Gather embedding rows into path matrices (copies; gradients are
	// scattered back after Backward).
	A := w.A       // src-view embeddings of the segment
	Atgt := w.Atgt // dst-view embeddings of the segment
	srcLoc, dstLoc := w.srcLoc, w.dstLoc
	for k, gid := range seg {
		srcLoc[k] = srcView.Local(gid)
		dstLoc[k] = dstView.Local(gid)
		copy(A.Row(k), srcEmb.In.Row(srcLoc[k]))
		copy(Atgt.Row(k), dstEmb.In.Row(dstLoc[k]))
	}

	tp := &w.tp
	tp.Reset()
	tA := tp.Param(A)
	tB := tp.Param(Atgt)
	// Both sides' embeddings are in Θ_cross (Algorithm 1). The loss
	// compares layer-normalized matrices — the translator output is
	// already layer-normed, and targets pass through the same normalizer
	// — so the objective acts on embedding *directions*; scale is owned
	// by the single-view objective. Because the gradient reaching the
	// target flows back through a trainable translator on the source
	// side, the two views are pulled into *correlated* (mutually
	// predictable) configurations rather than forced equality, which is
	// the paper's stated goal (Section I, challenge 2). This alignment
	// is also what makes the final view-averaged embedding (Section
	// III-C) coherent: averaging mutually unaligned spaces cancels
	// signal.
	tTgt := tp.LayerNormRows(tB)

	var loss *autodiff.Tensor
	translated := fwd.Apply(tp, tA)
	if !m.Cfg.NoTranslation {
		loss = m.similarityLoss(tp, translated, tTgt)
		transLoss = loss.Value.At(0, 0)
	}
	if !m.Cfg.NoReconstruction {
		recon := bwd.Apply(tp, translated)
		rl := m.similarityLoss(tp, recon, tp.LayerNormRows(tA))
		reconLoss = rl.Value.At(0, 0)
		if loss == nil {
			loss = rl
		} else {
			loss = tp.Add(loss, rl)
		}
	}
	if loss == nil {
		fwd.DiscardGrads()
		bwd.DiscardGrads()
		return 0, 0, 0
	}
	tp.Backward(loss)

	// Scatter embedding gradients (SGD at γ_cross), unless this is the
	// translator warm-up iteration.
	if m.crossEmbedUpdates {
		lr := m.Cfg.LRCross
		scatterRowGrads(srcEmb.In, srcLoc, tA.Grad, lr)
		scatterRowGrads(dstEmb.In, dstLoc, tB.Grad, lr)
	}
	// Translator parameter updates. When reconstruction is disabled the
	// backward translator never ran; discard its (empty) records.
	fwd.Step()
	if m.Cfg.NoReconstruction {
		bwd.DiscardGrads()
	} else {
		bwd.Step()
	}
	return loss.Value.At(0, 0), transLoss, reconLoss
}

// scatterRowGrads applies dst.Row(loc[k]) -= lr * grad.Row(k) for every
// segment position k.
//
// guardIteration (finite.go) checks sampled embedding rows, the
// translator parameters and the losses every iteration.
func scatterRowGrads(dst *mat.Dense, loc []int, grad *mat.Dense, lr float64) {
	for k, l := range loc {
		row := dst.Row(l)
		g := grad.Row(k)
		for i := range row {
			row[i] -= lr * g[i]
		}
	}
}

// similarityLoss scores how close translated is to target under the
// configured objective. Both losses follow the paper's Eq. 11–14
// normalization: the double sum over path positions and dimensions is
// divided by |λ| only (not by |λ|·d), which keeps per-element gradients
// large enough to matter against the single-view updates.
func (m *Model) similarityLoss(tp *autodiff.Tape, translated, target *autodiff.Tensor) *autodiff.Tensor {
	invL := 1 / float64(translated.Value.R)
	switch m.Cfg.Loss {
	case LossInnerProduct:
		// Literal Eqs. 11–14: the paper's footnote treats a low inner
		// product as "similar", so the raw sum is minimized directly.
		return tp.Scale(invL, tp.SumAll(tp.ElemMul(translated, target)))
	default:
		d := tp.Sub(translated, target)
		return tp.Scale(invL, tp.SumAll(tp.ElemMul(d, d)))
	}
}

// walkerFor exposes the view walker type for tests.
func (m *Model) walkerFor(vi int) walk.Walker { return m.walkers[vi] }
