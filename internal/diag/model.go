package diag

import (
	"fmt"
	"math"

	"transn/internal/mat"
	"transn/internal/transn"
)

// ModelHealth is the embedding/translator section of the document.
type ModelHealth struct {
	Dim         int                `json:"dim"`
	Views       []ViewHealth       `json:"views"`
	Translators []TranslatorHealth `json:"translators,omitempty"`
}

// ViewHealth summarizes one view-specific embedding table.
type ViewHealth struct {
	View  int `json:"view"`
	Nodes int `json:"nodes"`
	// NaN / Inf count non-finite elements in the table.
	NaN int `json:"nan"`
	Inf int `json:"inf"`
	// Row-norm distribution (over finite rows).
	NormMin  float64 `json:"norm_min"`
	NormMean float64 `json:"norm_mean"`
	NormMax  float64 `json:"norm_max"`
	// CollapsedDims counts dimensions whose variance across nodes is
	// below Options.CollapseVarTol — coordinates the model stopped
	// using.
	CollapsedDims int `json:"collapsed_dims"`
	// VarTopShare is the share of total variance carried by the single
	// largest dimension; near 1.0 means the embedding is effectively
	// one-dimensional.
	VarTopShare float64 `json:"var_top_share"`
	// EffectiveDims is the perplexity of the per-dimension variance
	// distribution, exp(−Σ p_d ln p_d): how many dimensions the
	// embedding behaves as if it has. A healthy d-dim table sits near
	// d; a collapsed one near 1.
	EffectiveDims float64 `json:"effective_dims"`
}

// TranslatorHealth scores one trained translator pair {T_i→j, T_j→i}
// on segments of the views' common nodes — the same inputs the Eq.
// 11–14 objectives trained on. MSEs are per-element, on
// layer-normalized matrices, so ~2.0 is the score of two unrelated
// embeddings and values well below it mean the translator learned a
// real mapping. Index 0 of each array is the i→j direction, index 1
// is j→i.
type TranslatorHealth struct {
	Pair     int `json:"pair"`
	I        int `json:"i"`
	J        int `json:"j"`
	Segments int `json:"segments"`
	// NaN / Inf count non-finite translator parameters (both
	// directions).
	NaN int `json:"nan"`
	Inf int `json:"inf"`
	// TranslationMSE is the Eq. 11–12 residual: translated source rows
	// vs layer-normalized target-view rows of the same common nodes.
	TranslationMSE [2]float64 `json:"translation_mse"`
	// RoundTripMSE is the Eq. 13–14 consistency residual:
	// ‖T_back(T_fwd(A)) − layernorm(A)‖² per element.
	RoundTripMSE [2]float64 `json:"round_trip_mse"`
}

func analyzeModel(m *transn.Model, opts Options, doc *Document) *ModelHealth {
	mh := &ModelHealth{Dim: m.Cfg.Dim}
	for vi := range m.Views() {
		vh := viewHealth(m, vi, opts)
		mh.Views = append(mh.Views, vh)
		switch {
		case vh.NaN+vh.Inf > 0:
			doc.Add(Finding{
				Severity: SeverityError, Code: CodeEmbeddingNonFinite, View: vi, Pair: -1,
				Message: fmt.Sprintf("view %d embedding has %d NaN and %d Inf elements", vi, vh.NaN, vh.Inf),
			})
		case vh.Nodes > 0 && vh.NormMax == 0:
			doc.Add(Finding{
				Severity: SeverityWarning, Code: CodeEmbeddingZero, View: vi, Pair: -1,
				Message: fmt.Sprintf("view %d embedding is all zeros", vi),
			})
		case vh.Nodes > 1 && vh.CollapsedDims > 0:
			doc.Add(Finding{
				Severity: SeverityWarning, Code: CodeEmbeddingCollapsed, View: vi, Pair: -1,
				Message: fmt.Sprintf("view %d embedding has %d of %d dimensions with variance below %g",
					vi, vh.CollapsedDims, mh.Dim, opts.CollapseVarTol),
			})
		case vh.Nodes > 1 && vh.VarTopShare > opts.TopShareWarn:
			doc.Add(Finding{
				Severity: SeverityWarning, Code: CodeEmbeddingCollapsed, View: vi, Pair: -1,
				Message: fmt.Sprintf("view %d embedding concentrates %.0f%% of its variance in one dimension",
					vi, 100*vh.VarTopShare),
			})
		}
	}
	for pi, pr := range m.ViewPairs() {
		th, ok := translatorHealth(m, pi, opts)
		if !ok {
			continue
		}
		mh.Translators = append(mh.Translators, th)
		if th.NaN+th.Inf > 0 {
			doc.Add(Finding{
				Severity: SeverityError, Code: CodeTranslatorNonFinite, View: -1, Pair: pi,
				Message: fmt.Sprintf("translator pair %d (views %d↔%d) has %d NaN and %d Inf parameters",
					pi, pr.I, pr.J, th.NaN, th.Inf),
			})
			continue
		}
		worst := math.Max(
			math.Max(th.TranslationMSE[0], th.TranslationMSE[1]),
			math.Max(th.RoundTripMSE[0], th.RoundTripMSE[1]))
		// Non-finite residuals stem from non-finite embeddings, which
		// already produced an error finding — don't double-report.
		if th.Segments > 0 && isFinite(worst) && worst > opts.ResidualWarn {
			doc.Add(Finding{
				Severity: SeverityWarning, Code: CodeTranslatorResidual, View: -1, Pair: pi,
				Message: fmt.Sprintf("translator pair %d (views %d↔%d) residual %.3f exceeds %.3f — translation no better than chance",
					pi, pr.I, pr.J, worst, opts.ResidualWarn),
			})
		}
	}
	return mh
}

func viewHealth(m *transn.Model, vi int, opts Options) ViewHealth {
	vh := ViewHealth{View: vi, NormMin: math.Inf(1)}
	tab := m.ViewTable(vi)
	if tab == nil || tab.R == 0 {
		vh.NormMin = 0
		return vh
	}
	vh.Nodes = tab.R
	d := tab.C
	// Per-dimension first and second moments over finite elements.
	sum := make([]float64, d)
	sumsq := make([]float64, d)
	cnt := make([]int, d)
	var normSum float64
	finiteRows := 0
	for r := 0; r < tab.R; r++ {
		row := tab.Row(r)
		var sq float64
		rowFinite := true
		for c, v := range row {
			if math.IsNaN(v) {
				vh.NaN++
				rowFinite = false
				continue
			}
			if math.IsInf(v, 0) {
				vh.Inf++
				rowFinite = false
				continue
			}
			sum[c] += v
			sumsq[c] += v * v
			cnt[c]++
			sq += v * v
		}
		if rowFinite {
			n := math.Sqrt(sq)
			normSum += n
			finiteRows++
			if n < vh.NormMin {
				vh.NormMin = n
			}
			if n > vh.NormMax {
				vh.NormMax = n
			}
		}
	}
	if finiteRows > 0 {
		vh.NormMean = normSum / float64(finiteRows)
	} else {
		vh.NormMin = 0
	}
	// Variance spectrum.
	vars := make([]float64, d)
	var total, top float64
	for c := 0; c < d; c++ {
		if cnt[c] < 2 {
			vh.CollapsedDims++
			continue
		}
		n := float64(cnt[c])
		mean := sum[c] / n
		v := sumsq[c]/n - mean*mean
		if v < 0 {
			v = 0 // numerical noise
		}
		vars[c] = v
		total += v
		if v > top {
			top = v
		}
		if v < opts.CollapseVarTol {
			vh.CollapsedDims++
		}
	}
	if total > 0 {
		vh.VarTopShare = top / total
		var h float64
		for _, v := range vars {
			if p := v / total; p > 0 {
				h -= p * math.Log(p)
			}
		}
		vh.EffectiveDims = math.Exp(h)
	}
	return vh
}

// translatorHealth scores pair pi by running both translators forward
// on fixed-length segments cut from the pair's common-node list (the
// list is cycled when shorter than segments × path length, mirroring
// how training pads short paths). Deterministic: segment choice uses
// no RNG.
func translatorHealth(m *transn.Model, pi int, opts Options) (TranslatorHealth, bool) {
	pr := m.ViewPairs()[pi]
	trs := m.Translators(pi)
	if trs[0] == nil || trs[1] == nil {
		return TranslatorHealth{}, false
	}
	th := TranslatorHealth{Pair: pi, I: pr.I, J: pr.J}
	for _, tr := range trs {
		for _, ms := range [][]*mat.Dense{tr.Ws, tr.Bs} {
			for _, w := range ms {
				for _, v := range w.Data {
					if math.IsNaN(v) {
						th.NaN++
					} else if math.IsInf(v, 0) {
						th.Inf++
					}
				}
			}
		}
	}
	L := trs[0].PathLen()
	if len(pr.Common) == 0 || L == 0 {
		return th, true
	}
	nSeg := (len(pr.Common) + L - 1) / L
	if nSeg > opts.SegmentsPerPair {
		nSeg = opts.SegmentsPerPair
	}
	th.Segments = nSeg
	views := m.Views()
	d := m.Cfg.Dim
	for side := 0; side < 2; side++ {
		src, dst := pr.I, pr.J
		if side == 1 {
			src, dst = pr.J, pr.I
		}
		fwd, bwd := trs[side], trs[1-side]
		srcTab, dstTab := m.ViewTable(src), m.ViewTable(dst)
		var transSum, rtSum float64
		for s := 0; s < nSeg; s++ {
			A := mat.New(L, d)
			Tgt := mat.New(L, d)
			for k := 0; k < L; k++ {
				gid := pr.Common[(s*L+k)%len(pr.Common)]
				A.SetRow(k, srcTab.Row(views[src].Local(gid)))
				Tgt.SetRow(k, dstTab.Row(views[dst].Local(gid)))
			}
			out := fwd.Translate(A) // output is already layer-normalized
			transSum += meanSqDiff(out, layerNormRows(Tgt.Clone()))
			rt := bwd.Translate(out)
			rtSum += meanSqDiff(rt, layerNormRows(A.Clone()))
		}
		th.TranslationMSE[side] = transSum / float64(nSeg)
		th.RoundTripMSE[side] = rtSum / float64(nSeg)
	}
	// Non-finite residuals only arise from non-finite embedding rows,
	// which the view sweep reports as an error finding; zero them here
	// so the document always JSON-encodes.
	for side := 0; side < 2; side++ {
		if !isFinite(th.TranslationMSE[side]) {
			th.TranslationMSE[side] = 0
		}
		if !isFinite(th.RoundTripMSE[side]) {
			th.RoundTripMSE[side] = 0
		}
	}
	return th, true
}

// meanSqDiff returns the per-element mean squared difference of two
// same-shape matrices.
func meanSqDiff(a, b *mat.Dense) float64 {
	var s float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return s / float64(len(a.Data))
}

// layerNormRows rescales each row of x in place to zero mean and unit
// variance with the arithmetic of autodiff's LayerNormRows, which
// training applies to translation targets, so diagnostic residuals are
// measured in the space the Eq. 11–14 objectives optimized. It is the
// one copy outside the tape: diagnostics run without recording a graph.
func layerNormRows(x *mat.Dense) *mat.Dense {
	const eps = 1e-5
	for i := 0; i < x.R; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var varr float64
		for _, v := range row {
			d := v - mean
			varr += d * d
		}
		varr /= float64(len(row))
		inv := 1 / math.Sqrt(varr+eps)
		for j := range row {
			row[j] = (row[j] - mean) * inv
		}
	}
	return x
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
