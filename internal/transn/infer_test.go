package transn

import (
	"math"
	"slices"
	"testing"

	"transn/internal/graph"
	"transn/internal/mat"
)

func TestInferNodePlacesNearNeighbors(t *testing.T) {
	g := socialGraph(t, 12, 6, 41)
	cfg := quickCfg()
	cfg.Iterations = 5
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := m.Embeddings()

	// Fold in a "new user" attached to three group-0 users via UU edges.
	var group0 []graph.NodeID
	var group1 []graph.NodeID
	for _, id := range g.LabeledNodes() {
		if g.Label(id) == 0 {
			group0 = append(group0, id)
		} else {
			group1 = append(group1, id)
		}
	}
	uu := graph.EdgeType(0)
	edges := []NeighborEdge{
		{Neighbor: group0[0], Type: uu, Weight: 1},
		{Neighbor: group0[1], Type: uu, Weight: 1},
		{Neighbor: group0[2], Type: uu, Weight: 1},
	}
	vec, err := m.InferNode(edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != cfg.Dim {
		t.Fatalf("inferred dim %d want %d", len(vec), cfg.Dim)
	}
	// The inferred node should be closer to group 0 than group 1.
	sim := func(ids []graph.NodeID) float64 {
		var s float64
		for _, id := range ids {
			s += mat.CosineSim(vec, emb.Row(int(id)))
		}
		return s / float64(len(ids))
	}
	if sim(group0) <= sim(group1) {
		t.Fatalf("inferred node not near its neighbors: g0 %.4f g1 %.4f",
			sim(group0), sim(group1))
	}
}

func TestInferNodeErrors(t *testing.T) {
	g := socialGraph(t, 8, 4, 42)
	m, err := Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InferNode(nil); err == nil {
		t.Fatal("expected error for no edges")
	}
	if _, err := m.InferNode([]NeighborEdge{{Neighbor: 0, Type: 99, Weight: 1}}); err == nil {
		t.Fatal("expected error for unknown edge type")
	}
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := m.InferNode([]NeighborEdge{{Neighbor: 0, Type: 0, Weight: w}}); err == nil {
			t.Fatalf("expected error for weight %v", w)
		}
	}
	// Neighbor not present in the view of the given type: keyword nodes
	// are absent from the UU view.
	var kw graph.NodeID = -1
	for _, n := range g.Nodes {
		if g.NodeTypeNames[n.Type] == "keyword" {
			kw = n.ID
			break
		}
	}
	if _, err := m.InferNode([]NeighborEdge{{Neighbor: kw, Type: 0, Weight: 1}}); err == nil {
		t.Fatal("expected error for neighbor outside the view")
	}
}

// TestInferNodeExtremeWeights folds in nodes whose edge weights sit at
// the ends of the float64 range: the result is still the weighted mean
// of the neighbour rows, never ±Inf, zero or a sign pattern.
func TestInferNodeExtremeWeights(t *testing.T) {
	g := socialGraph(t, 8, 4, 42)
	m, err := Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	uu := graph.EdgeType(0)
	users := g.LabeledNodes()
	row := func(id graph.NodeID) []float64 { return m.emb[uu].In.Row(m.views[uu].Local(id)) }
	r0, r1 := row(users[0]), row(users[1])
	infer := func(ws ...float64) []float64 {
		t.Helper()
		edges := make([]NeighborEdge, len(ws))
		for i, w := range ws {
			edges[i] = NeighborEdge{Neighbor: users[i], Type: uu, Weight: w}
		}
		vec, err := m.InferNode(edges)
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}
	near := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-15*math.Abs(want[i]) {
				t.Fatalf("%s: element %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}

	// The smallest subnormal weight scales to ½: the row comes back exactly.
	if got := infer(5e-324); !slices.Equal(got, r0) {
		t.Fatalf("weight 5e-324: got %v, want the neighbour's row %v", got, r0)
	}
	near("weight 1.7e308", infer(1.7e308), r0)
	mean := make([]float64, len(r0))
	for i := range mean {
		mean[i] = (r0[i] + r1[i]) / 2
	}
	near("two weights 1e308", infer(1e308, 1e308), mean)
}

// TestInferNodeWeightScaleInvariant requires the same bits when every
// weight is multiplied by one power of two, down into the subnormals
// and up to near MaxFloat64.
func TestInferNodeWeightScaleInvariant(t *testing.T) {
	g := socialGraph(t, 8, 4, 42)
	m, err := Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	users := g.LabeledNodes()
	infer := func(scale float64) []float64 {
		t.Helper()
		var edges []NeighborEdge
		for i, w := range []float64{1, 3, 0.5} {
			edges = append(edges, NeighborEdge{Neighbor: users[i], Type: 0, Weight: w * scale})
		}
		edges = append(edges, NeighborEdge{Neighbor: users[3], Type: 1, Weight: 2 * scale})
		vec, err := m.InferNode(edges)
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}
	want := infer(1)
	for _, scale := range []float64{0x1p-1060, 0x1p-40, 0x1p40, 0x1p1020} {
		if got := infer(scale); !slices.Equal(got, want) {
			t.Fatalf("weights ×%g: got %v, want %v", scale, got, want)
		}
	}
}
