package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildAcademic replicates the paper's Figure 2(a) academic network:
// 3 authors, 2 papers, 1 university; edge types authorship (AP),
// citation (PP), affiliation (AU).
func buildAcademic(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	univ := b.NodeType("university")
	ap := b.EdgeType("authorship")
	pp := b.EdgeType("citation")
	au := b.EdgeType("affiliation")

	ids := map[string]NodeID{}
	for _, n := range []string{"A1", "A2", "A3"} {
		ids[n] = b.AddNode(author, n)
	}
	for _, n := range []string{"P1", "P2"} {
		ids[n] = b.AddNode(paper, n)
	}
	ids["U1"] = b.AddNode(univ, "U1")

	b.AddEdge(ids["A1"], ids["P1"], ap, 1)
	b.AddEdge(ids["A2"], ids["P1"], ap, 1)
	b.AddEdge(ids["A3"], ids["P2"], ap, 1)
	b.AddEdge(ids["P1"], ids["P2"], pp, 1)
	b.AddEdge(ids["A1"], ids["U1"], au, 1)
	b.AddEdge(ids["A3"], ids["U1"], au, 1)

	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, ids
}

func TestBuildAcademicCounts(t *testing.T) {
	g, _ := buildAcademic(t)
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.NumNodeTypes() != 3 || g.NumEdgeTypes() != 3 {
		t.Fatalf("got %d node types %d edge types", g.NumNodeTypes(), g.NumEdgeTypes())
	}
}

func TestViewsPartitionEdges(t *testing.T) {
	// Equation 1: views' edge sets are disjoint and their union is E.
	g, _ := buildAcademic(t)
	views := g.Views()
	total := 0
	for _, v := range views {
		total += v.NumEdges()
		if err := v.Validate(); err != nil {
			t.Fatalf("view %d invalid: %v", v.Type, err)
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("views cover %d edges, want %d", total, g.NumEdges())
	}
}

func TestViewKinds(t *testing.T) {
	g, _ := buildAcademic(t)
	views := g.Views()
	// authorship: author-paper => heter; citation: paper-paper => homo;
	// affiliation: author-university => heter.
	wantHetero := []bool{true, false, true}
	for i, v := range views {
		if v.Hetero != wantHetero[i] {
			t.Errorf("view %s Hetero=%v want %v", g.EdgeTypeNames[i], v.Hetero, wantHetero[i])
		}
	}
}

func TestNoIsolatedNodesInViews(t *testing.T) {
	// The paper's core claim for edge-type views (Figure 2c): every node
	// in a view has at least one incident edge.
	g, _ := buildAcademic(t)
	for _, v := range g.Views() {
		for l := 0; l < v.NumNodes(); l++ {
			if v.Degree(l) == 0 {
				t.Fatalf("view %d has isolated node %d", v.Type, v.Global(l))
			}
		}
	}
}

func TestViewPairsShareCommonNodes(t *testing.T) {
	g, ids := buildAcademic(t)
	pairs := g.ViewPairs()
	// authorship∩citation share papers; authorship∩affiliation share
	// authors; citation∩affiliation share nothing.
	if len(pairs) != 2 {
		t.Fatalf("got %d view pairs, want 2: %+v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if len(p.Common) == 0 {
			t.Fatal("view pair with empty common set")
		}
	}
	// authorship(0) x citation(1): common = P1, P2.
	if pairs[0].I != 0 || pairs[0].J != 1 {
		t.Fatalf("unexpected first pair %+v", pairs[0])
	}
	want := []NodeID{ids["P1"], ids["P2"]}
	if len(pairs[0].Common) != 2 || pairs[0].Common[0] != want[0] || pairs[0].Common[1] != want[1] {
		t.Fatalf("common = %v want %v", pairs[0].Common, want)
	}
}

func TestLocalGlobalRoundTrip(t *testing.T) {
	g, _ := buildAcademic(t)
	for _, v := range g.Views() {
		for l := 0; l < v.NumNodes(); l++ {
			if got := v.Local(v.Global(l)); got != l {
				t.Fatalf("Local(Global(%d)) = %d", l, got)
			}
		}
		if v.Local(NodeID(9999)) != -1 {
			t.Fatal("Local of absent node should be -1")
		}
	}
}

func TestDegreeAndWeights(t *testing.T) {
	g, ids := buildAcademic(t)
	ap := g.Views()[0] // authorship
	lp1 := ap.Local(ids["P1"])
	if d := ap.Degree(lp1); d != 2 {
		t.Fatalf("P1 authorship degree = %d want 2", d)
	}
	la1 := ap.Local(ids["A1"])
	if w := ap.EdgeWeight(la1, lp1); w != 1 {
		t.Fatalf("A1-P1 weight = %v", w)
	}
	if w := ap.EdgeWeight(lp1, ap.Local(ids["A3"])); w != 0 {
		t.Fatalf("absent edge weight = %v, want 0", w)
	}
	if wd := ap.WeightedDegree(lp1); wd != 2 {
		t.Fatalf("P1 weighted degree = %v", wd)
	}
}

func TestPairedSubview(t *testing.T) {
	g, ids := buildAcademic(t)
	views := g.Views()
	pairs := g.ViewPairs()
	// Pair authorship(0) x affiliation(2): common nodes are A1, A3.
	var pr ViewPair
	found := false
	for _, p := range pairs {
		if p.I == 0 && p.J == 2 {
			pr = p
			found = true
		}
	}
	if !found {
		t.Fatal("authorship x affiliation pair missing")
	}
	sub := PairedSubview(views[0], pr.Common)
	// In the authorship view, common {A1, A3} plus their neighbors
	// {P1, P2} = 4 nodes; edges A1-P1, A3-P2 (A2-P1 dropped since A2 not kept).
	if sub.NumNodes() != 4 {
		t.Fatalf("subview nodes = %d want 4 (%v)", sub.NumNodes(), sub.NodeIDs)
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("subview edges = %d want 2", sub.NumEdges())
	}
	if sub.Contains(ids["A2"]) {
		t.Fatal("A2 should be excluded from the paired-subview")
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("subview invalid: %v", err)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	tt := b.NodeType("x")
	et := b.EdgeType("e")
	id := b.AddNode(tt, "n")
	b.AddEdge(id, id, et, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected self-loop rejection")
	}
}

func TestBuilderRejectsInconsistentEdgeType(t *testing.T) {
	b := NewBuilder()
	a := b.NodeType("a")
	c := b.NodeType("c")
	et := b.EdgeType("e")
	n1 := b.AddNode(a, "n1")
	n2 := b.AddNode(a, "n2")
	n3 := b.AddNode(c, "n3")
	b.AddEdge(n1, n2, et, 1) // a-a
	b.AddEdge(n1, n3, et, 1) // a-c with same type: invalid
	if _, err := b.Build(); err == nil {
		t.Fatal("expected inconsistent edge type rejection")
	}
}

func TestBuilderRejectsNonPositiveWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		b := NewBuilder()
		a := b.NodeType("a")
		et := b.EdgeType("e")
		n1 := b.AddNode(a, "n1")
		n2 := b.AddNode(a, "n2")
		b.AddEdge(n1, n2, et, w)
		if _, err := b.Build(); err == nil {
			t.Fatalf("weight %v: expected rejection", w)
		}
	}
}

func TestBuilderRejectsTrivialTypeUniverse(t *testing.T) {
	b := NewBuilder()
	b.NodeType("only")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected |C_V|+|C_E| > 1 rejection")
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder()
	a := b.NodeType("a")
	b.EdgeType("e")
	n1 := b.AddNode(a, "n1")
	n2 := b.AddNode(a, "n2")
	n3 := b.AddNode(a, "n3")
	et := b.EdgeType("e")
	b.AddEdge(n1, n2, et, 1)
	b.AddEdge(n2, n3, et, 1)
	b.SetLabel(n1, 0)
	b.SetLabel(n3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.LabeledNodes(); len(got) != 2 {
		t.Fatalf("labeled = %v", got)
	}
	if g.NumLabels() != 3 {
		t.Fatalf("NumLabels = %d want 3", g.NumLabels())
	}
	if g.Label(n2) != NoLabel {
		t.Fatal("n2 should be unlabeled")
	}
}

func TestComputeStats(t *testing.T) {
	g, _ := buildAcademic(t)
	s := g.ComputeStats()
	if s.NumNodes != 6 || s.NumEdges != 6 {
		t.Fatalf("stats %+v", s)
	}
	if s.NodesPerType["author"] != 3 || s.NodesPerType["paper"] != 2 {
		t.Fatalf("nodes per type %v", s.NodesPerType)
	}
	if s.EdgesPerType["authorship"] != 3 {
		t.Fatalf("edges per type %v", s.EdgesPerType)
	}
	if s.AverageDegree != 2 {
		t.Fatalf("avg degree %v", s.AverageDegree)
	}
	pairs := SortedTypeCounts(s.NodesPerType)
	if len(pairs) != 3 || !strings.HasPrefix(pairs[0], "author=") {
		t.Fatalf("SortedTypeCounts = %v", pairs)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	g, _ := buildAcademic(t)
	var buf bytes.Buffer
	if err := Store(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := range g.Nodes {
		if g.Nodes[i].Name != g2.Nodes[i].Name || g.Nodes[i].Label != g2.Nodes[i].Label {
			t.Fatalf("node %d mismatch", i)
		}
	}
	for i := range g.Edges {
		if g.Edges[i].Weight != g2.Edges[i].Weight {
			t.Fatalf("edge %d weight mismatch", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"unknown record", "X\ta\tb\n"},
		{"dup node", "N\ta\tt\nN\ta\tt\n"},
		{"edge unknown node", "N\ta\tt\nE\ta\tb\te\n"},
		{"bad weight", "N\ta\tt\nN\tb\tt\nE\ta\tb\te\tnope\n"},
		{"NaN weight", "N\ta\tt\nN\tb\tt\nE\ta\tb\te\tNaN\n"},
		{"infinite weight", "N\ta\tt\nN\tb\tt\nE\ta\tb\te\t+Inf\n"},
		{"bad label", "N\ta\tt\t-5\n"},
		{"short N", "N\ta\n"},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestLoadSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\nN\ta\tt1\nN\tb\tt2\n# middle\nE\ta\tb\te\t2.5\n"
	g, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.Edges[0].Weight != 2.5 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

// Property: on random graphs, views always partition the edge set and CSR
// symmetry holds (Equation 1 + undirectedness).
func TestRandomGraphViewInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		ta := b.NodeType("a")
		tb := b.NodeType("b")
		eAA := b.EdgeType("aa")
		eAB := b.EdgeType("ab")
		nA, nB := 5+rng.Intn(10), 5+rng.Intn(10)
		var as, bs []NodeID
		for i := 0; i < nA; i++ {
			as = append(as, b.AddNode(ta, ""))
		}
		for i := 0; i < nB; i++ {
			bs = append(bs, b.AddNode(tb, ""))
		}
		ne := 10 + rng.Intn(30)
		for i := 0; i < ne; i++ {
			if rng.Intn(2) == 0 {
				u, v := rng.Intn(nA), rng.Intn(nA)
				if u == v {
					continue
				}
				b.AddEdge(as[u], as[v], eAA, 1+rng.Float64())
			} else {
				b.AddEdge(as[rng.Intn(nA)], bs[rng.Intn(nB)], eAB, 1+rng.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		total := 0
		for _, v := range g.Views() {
			if v.Validate() != nil {
				return false
			}
			total += v.NumEdges()
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: paired-subview node sets always contain the common nodes that
// appear in the view and are subsets of the view's nodes.
func TestPairedSubviewProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		ta := b.NodeType("a")
		tb := b.NodeType("b")
		e1 := b.EdgeType("ab1")
		e2 := b.EdgeType("ab2")
		var as, bs []NodeID
		for i := 0; i < 8; i++ {
			as = append(as, b.AddNode(ta, ""))
		}
		for i := 0; i < 8; i++ {
			bs = append(bs, b.AddNode(tb, ""))
		}
		for i := 0; i < 20; i++ {
			b.AddEdge(as[rng.Intn(8)], bs[rng.Intn(8)], e1, 1)
			b.AddEdge(as[rng.Intn(8)], bs[rng.Intn(8)], e2, 1)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for _, p := range g.ViewPairs() {
			views := g.Views()
			for _, vi := range []int{p.I, p.J} {
				sub := PairedSubview(views[vi], p.Common)
				if sub.Validate() != nil {
					return false
				}
				for _, id := range sub.NodeIDs {
					if !views[vi].Contains(id) {
						return false
					}
				}
				for _, c := range p.Common {
					if views[vi].Contains(c) && !sub.Contains(c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedView(t *testing.T) {
	g, ids := buildAcademic(t)
	mv := MergedView(g)
	if mv.NumNodes() != g.NumNodes() {
		t.Fatalf("merged view has %d nodes, want %d", mv.NumNodes(), g.NumNodes())
	}
	if mv.NumEdges() != g.NumEdges() {
		t.Fatalf("merged view has %d edges, want %d", mv.NumEdges(), g.NumEdges())
	}
	if err := mv.Validate(); err != nil {
		t.Fatalf("merged view invalid: %v", err)
	}
	// All edge types are reachable: A1's merged degree counts authorship
	// plus affiliation edges.
	la1 := mv.Local(ids["A1"])
	if d := mv.Degree(la1); d != 2 {
		t.Fatalf("A1 merged degree = %d want 2", d)
	}
}
