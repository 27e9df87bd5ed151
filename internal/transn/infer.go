package transn

import (
	"fmt"

	"transn/internal/graph"
	"transn/internal/ordered"
)

// NeighborEdge describes one edge of a node that was not part of the
// training graph: the existing node it attaches to, the edge type, and
// the weight.
type NeighborEdge struct {
	Neighbor graph.NodeID
	Type     graph.EdgeType
	Weight   float64
}

// InferNode embeds an unseen node from its edges into the trained graph
// (inductive fold-in, an extension beyond the paper). For each view
// whose edge type appears among the edges, the node's view-specific
// embedding is estimated as the weight-averaged embedding of its
// neighbors in that view; the final embedding averages the view
// estimates, mirroring Embeddings. This matches the skip-gram geometry:
// a node co-occurs on walks with its neighbors, so its embedding
// gravitates to their (weighted) barycenter.
//
// The weights are validated positive and the rows are trained
// embeddings, so the averages stay finite.
func (m *Model) InferNode(edges []NeighborEdge) ([]float64, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("transn: cannot infer a node with no edges")
	}
	out := make([]float64, m.Cfg.Dim)
	viewsUsed := 0
	// Group by edge type (= view index).
	byView := map[graph.EdgeType][]NeighborEdge{}
	for _, e := range edges {
		if int(e.Type) < 0 || int(e.Type) >= len(m.views) {
			return nil, fmt.Errorf("transn: unknown edge type %d", e.Type)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("transn: non-positive edge weight %g", e.Weight)
		}
		byView[e.Type] = append(byView[e.Type], e)
	}
	viewVec := make([]float64, m.Cfg.Dim)
	// Sorted view order keeps the float accumulation deterministic.
	for _, et := range ordered.Keys(byView) {
		es := byView[et]
		v := m.views[et]
		if m.emb[et] == nil {
			continue
		}
		for i := range viewVec {
			viewVec[i] = 0
		}
		var total float64
		for _, e := range es {
			l := v.Local(e.Neighbor)
			if l < 0 {
				return nil, fmt.Errorf("transn: neighbor %d not in view %d", e.Neighbor, et)
			}
			row := m.emb[et].In.Row(l)
			for i := range viewVec {
				viewVec[i] += e.Weight * row[i]
			}
			total += e.Weight
		}
		if total == 0 {
			continue
		}
		for i := range viewVec {
			out[i] += viewVec[i] / total
		}
		viewsUsed++
	}
	if viewsUsed == 0 {
		return nil, fmt.Errorf("transn: no usable views for the given edges")
	}
	inv := 1 / float64(viewsUsed)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}
