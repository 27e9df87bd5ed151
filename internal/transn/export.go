package transn

import (
	"fmt"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/skipgram"
)

// Export is the serialization-agnostic view of a trained model's
// learned state: everything a persistence format must carry, with the
// graph-derived structure (views, pairs) left out because loaders
// re-derive it from the graph the caller supplies. The model file
// format (transn.snap/v1, internal/snapfmt) decodes into an Export and
// assembles the model through FromExport. Matrices in an Export are
// not copies — they alias the model (Export) or the decoded buffers
// (FromExport), and the read-only contract travels with them.
type Export struct {
	// Cfg is the training configuration (hyperparameters only; runtime
	// telemetry handles are not part of a model's learned state).
	Cfg Config
	// EmbIn and EmbOut hold per-view input/output embedding tables in
	// graph view order; nil entries mark empty views.
	EmbIn, EmbOut []*mat.Dense
	// TransW and TransB hold per-pair, per-side translator weight and
	// bias stacks in graph pair order; an empty weight list marks an
	// untrained side.
	TransW, TransB [][2][]*mat.Dense
	// TranslatorSimple records whether the translators are the simple
	// single-layer variant (Config.SimpleTranslator at train time).
	TranslatorSimple bool
}

// Export returns the model's learned state for serialization. The
// matrices alias the model — callers must treat them as read-only.
func (m *Model) Export() Export {
	e := Export{Cfg: m.Cfg}
	for _, em := range m.emb {
		if em == nil {
			e.EmbIn = append(e.EmbIn, nil)
			e.EmbOut = append(e.EmbOut, nil)
			continue
		}
		e.EmbIn = append(e.EmbIn, em.In)
		e.EmbOut = append(e.EmbOut, em.Out)
	}
	for _, pair := range m.trans {
		var w2, b2 [2][]*mat.Dense
		for side := 0; side < 2; side++ {
			if pair[side] == nil {
				continue
			}
			w2[side] = append(w2[side], pair[side].Ws...)
			b2[side] = append(b2[side], pair[side].Bs...)
			e.TranslatorSimple = pair[side].Simple
		}
		e.TransW = append(e.TransW, w2)
		e.TransB = append(e.TransB, b2)
	}
	return e
}

// FromExport assembles a model from serialized learned state and the
// graph it was trained on (same nodes, edges and types). It owns the
// structural validation shared by every persistence format: view
// counts and row counts must match the graph, and translator pairs
// must match the graph's view-pair derivation. The matrices are
// retained, not copied.
func FromExport(e Export, g *graph.Graph) (*Model, error) {
	m := &Model{Cfg: e.Cfg, Graph: g, views: g.Views()}
	if len(e.EmbIn) != len(m.views) {
		return nil, fmt.Errorf("transn: model has %d views, graph has %d",
			len(e.EmbIn), len(m.views))
	}
	if len(e.EmbOut) != len(e.EmbIn) {
		return nil, fmt.Errorf("transn: model has %d in-tables but %d out-tables",
			len(e.EmbIn), len(e.EmbOut))
	}
	for vi, v := range m.views {
		in := e.EmbIn[vi]
		if in == nil {
			m.emb = append(m.emb, nil)
			continue
		}
		if in.R != v.NumNodes() {
			return nil, fmt.Errorf("transn: view %d has %d nodes, stored table has %d rows",
				vi, v.NumNodes(), in.R)
		}
		m.emb = append(m.emb, &skipgram.Model{In: in, Out: e.EmbOut[vi]})
	}
	if len(e.TransW) > 0 {
		m.pairs = g.ViewPairs()
		if len(m.pairs) != len(e.TransW) {
			return nil, fmt.Errorf("transn: model has %d view-pairs, graph has %d",
				len(e.TransW), len(m.pairs))
		}
		if len(e.TransB) != len(e.TransW) {
			return nil, fmt.Errorf("transn: model has %d weight pairs but %d bias pairs",
				len(e.TransW), len(e.TransB))
		}
		for p := range e.TransW {
			var pair [2]*Translator
			for side := 0; side < 2; side++ {
				if len(e.TransW[p][side]) == 0 {
					continue
				}
				pair[side] = &Translator{
					Simple: e.TranslatorSimple,
					Ws:     e.TransW[p][side],
					Bs:     e.TransB[p][side],
				}
			}
			m.trans = append(m.trans, pair)
		}
	}
	return m, nil
}
