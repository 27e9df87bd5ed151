package transn

import (
	"fmt"

	"transn/internal/graph"
	"transn/internal/mat"
)

// Frozen is an immutable, concurrency-safe read view of a trained (or
// loaded) model: the snapshot object the serving layer hands out to
// concurrent request handlers. Freeze precomputes the final averaged
// embedding table once, so per-request reads are row lookups rather
// than per-call view averaging, and every method on Frozen only reads —
// nothing reachable from a Frozen mutates model state. The one rule is
// the model must be at rest: freeze after Train has returned (or after
// Load), never while training is still running.
type Frozen struct {
	m *Model
	// final is the precomputed Section III-C view-averaged table, one
	// row per global node.
	final *mat.Dense
	// pairIdx maps an unordered view pair {i, j} (keyed i<j) to its
	// index in m.pairs, for translator lookup by view indices.
	pairIdx map[[2]int]int
}

// Freeze builds the read-only view of the model. It sweeps the model
// for non-finite values first (CheckFinite) so a corrupt snapshot is an
// error at load time, not a NaN served to a caller.
func (m *Model) Freeze() (*Frozen, error) {
	if err := m.CheckFinite(); err != nil {
		return nil, err
	}
	f := &Frozen{m: m, final: m.Embeddings(), pairIdx: map[[2]int]int{}}
	for p, pr := range m.pairs {
		f.pairIdx[[2]int{pr.I, pr.J}] = p
	}
	return f, nil
}

// FreezeWithFinal builds the read-only view around a precomputed final
// table instead of re-averaging one, for loaders whose format already
// stores it (internal/snapfmt — where the table may alias a read-only
// mmap that must not be re-materialized on reload). The caller vouches
// that final is this model's Section III-C table and that both were
// validated finite when the snapshot was packed; only the shape is
// checked here.
func (m *Model) FreezeWithFinal(final *mat.Dense) (*Frozen, error) {
	if final == nil {
		return nil, fmt.Errorf("transn: FreezeWithFinal: nil final table")
	}
	if final.R != m.Graph.NumNodes() || final.C != m.Cfg.Dim {
		return nil, fmt.Errorf("transn: FreezeWithFinal: table is %dx%d, want %dx%d",
			final.R, final.C, m.Graph.NumNodes(), m.Cfg.Dim)
	}
	f := &Frozen{m: m, final: final, pairIdx: map[[2]int]int{}}
	for p, pr := range m.pairs {
		f.pairIdx[[2]int{pr.I, pr.J}] = p
	}
	return f, nil
}

// Model returns the underlying model, for observe-only consumers
// (internal/diag). Callers must uphold the read-only contract.
func (f *Frozen) Model() *Model { return f.m }

// Dim returns the embedding dimensionality.
func (f *Frozen) Dim() int { return f.m.Cfg.Dim }

// Graph returns the graph the model was trained on.
func (f *Frozen) Graph() *graph.Graph { return f.m.Graph }

// Views returns the model's views (one per edge type).
func (f *Frozen) Views() []*graph.View { return f.m.views }

// ViewPairs returns the trained view-pairs (empty under NoCrossView).
func (f *Frozen) ViewPairs() []graph.ViewPair { return f.m.pairs }

// FinalTable returns the precomputed final embedding table, one row per
// global node. The table is owned by the Frozen — callers must not
// mutate it.
func (f *Frozen) FinalTable() *mat.Dense { return f.final }

// Final returns global node id's final averaged embedding (Section
// III-C), a direct row reference into the precomputed table.
func (f *Frozen) Final(id graph.NodeID) []float64 {
	return f.final.Row(int(id))
}

// ViewEmbedding returns view vi's view-specific embedding of global
// node id, or nil when the node is not in the view.
func (f *Frozen) ViewEmbedding(vi int, id graph.NodeID) []float64 {
	return f.m.ViewEmbedding(vi, id)
}

// PairFor returns the trained view-pair index for views (i, j) in
// either order, or false when the two views share no common nodes (or
// the model trained under NoCrossView).
func (f *Frozen) PairFor(i, j int) (int, bool) {
	if j < i {
		i, j = j, i
	}
	p, ok := f.pairIdx[[2]int{i, j}]
	return p, ok
}

// TranslateNode runs global node id's view-from embedding through the
// trained translator stack T_{from→to} (Eqs. 8–10) and returns the
// translated vector in view to's embedding space. The translator maps
// fixed-length path matrices, so the single node is lifted to a path by
// repeating its embedding row PathLen times; the result is the mean of
// the output rows, which averages out the row-dependent feed-forward
// mixing and is deterministic for a given snapshot. The output is
// layer-normalized, like the translation targets the stack trained
// against (DESIGN.md §2). The forward pass runs on a pooled tape, so
// the result slice is the call's one allocation.
func (f *Frozen) TranslateNode(from, to int, id graph.NodeID) ([]float64, error) {
	if from == to {
		return nil, fmt.Errorf("transn: translate: views are the same (%d)", from)
	}
	p, ok := f.PairFor(from, to)
	if !ok {
		return nil, fmt.Errorf("transn: translate: no trained translator between views %d and %d", from, to)
	}
	src := f.ViewEmbedding(from, id)
	if src == nil {
		return nil, fmt.Errorf("transn: translate: node %d is not in view %d", id, from)
	}
	side := 0
	if f.m.pairs[p].I != from {
		side = 1
	}
	tr := f.m.trans[p][side]
	if tr == nil {
		return nil, fmt.Errorf("transn: translate: pair %d has no trained translator", p)
	}
	res := make([]float64, len(src))
	tr.translateRowMean(res, src)
	return res, nil
}

// InferNode embeds an unseen node from its edges (inductive fold-in).
// It delegates to Model.InferNode, which only reads trained tables, so
// concurrent calls are safe on a frozen model.
func (f *Frozen) InferNode(edges []NeighborEdge) ([]float64, error) {
	return f.m.InferNode(edges)
}
