package baselines_test

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/baselines"
	"transn/internal/baselines/hin2vec"
	"transn/internal/baselines/line"
	"transn/internal/baselines/metapath2vec"
	"transn/internal/baselines/mve"
	"transn/internal/baselines/node2vec"
	"transn/internal/baselines/rgcn"
	"transn/internal/baselines/simple"
	"transn/internal/eval"
	"transn/internal/graph"
	"transn/internal/mat"
)

// communityGraph builds a labeled two-community, two-view network: users
// in two groups with intra-group friendships (UU) and group-specific
// keywords (UK).
func communityGraph(t testing.TB, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	user := b.NodeType("user")
	kw := b.NodeType("keyword")
	uu := b.EdgeType("UU")
	uk := b.EdgeType("UK")
	const perGroup = 20
	var users [2][]graph.NodeID
	var kws [2][]graph.NodeID
	for g := 0; g < 2; g++ {
		for i := 0; i < perGroup; i++ {
			id := b.AddNode(user, "")
			b.SetLabel(id, g)
			users[g] = append(users[g], id)
		}
		for i := 0; i < 6; i++ {
			kws[g] = append(kws[g], b.AddNode(kw, ""))
		}
	}
	seen := map[[2]graph.NodeID]bool{}
	add := func(u, v graph.NodeID, et graph.EdgeType, w float64) {
		if u > v {
			u, v = v, u
		}
		k := [2]graph.NodeID{u, v}
		if u == v || seen[k] {
			return
		}
		seen[k] = true
		b.AddEdge(u, v, et, w)
	}
	for g := 0; g < 2; g++ {
		for i := 0; i < perGroup; i++ {
			add(users[g][i], users[g][(i+1)%perGroup], uu, 1)
			add(users[g][i], users[g][(i+5)%perGroup], uu, 1)
			add(users[g][i], kws[g][rng.Intn(6)], uk, 1+3*rng.Float64())
			add(users[g][i], kws[g][rng.Intn(6)], uk, 1+3*rng.Float64())
		}
	}
	add(users[0][0], users[1][0], uu, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allMethods() []baselines.Method {
	return []baselines.Method{
		line.Method{SamplesPerEdge: 30},
		node2vec.Method{NumWalks: 6, WalkLength: 20},
		metapath2vec.Method{Pattern: []string{"user", "keyword", "user"}, NumWalks: 6, WalkLength: 20},
		hin2vec.Method{NumWalks: 4, WalkLength: 20},
		mve.Method{NumWalks: 4, WalkLength: 20, Iterations: 3},
		rgcn.Method{Epochs: 40, Batch: 64},
		simple.Method{Epochs: 15},
	}
}

func TestAllBaselinesEmbedShapeAndFiniteness(t *testing.T) {
	g := communityGraph(t, 1)
	for _, m := range allMethods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			emb, err := m.Embed(g, 16, 7)
			if err != nil {
				t.Fatal(err)
			}
			if emb.R != g.NumNodes() || emb.C != 16 {
				t.Fatalf("shape %dx%d want %dx16", emb.R, emb.C, g.NumNodes())
			}
			for _, v := range emb.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("non-finite embedding")
				}
			}
		})
	}
}

func TestAllBaselinesDeterministic(t *testing.T) {
	g := communityGraph(t, 2)
	for _, m := range allMethods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			e1, err := m.Embed(g, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := m.Embed(g, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !e1.Equal(e2, 0) {
				t.Fatal("same seed must give identical embeddings")
			}
		})
	}
}

func TestWalkBasedBaselinesCaptureCommunities(t *testing.T) {
	// The structure-learning methods must separate the two communities.
	// (R-GCN and SimplE are KG scorers whose raw entity vectors need a
	// decoder; we hold them to the weaker link-prediction bar below.)
	g := communityGraph(t, 3)
	var g0, g1 []int
	for _, id := range g.LabeledNodes() {
		if g.Label(id) == 0 {
			g0 = append(g0, int(id))
		} else {
			g1 = append(g1, int(id))
		}
	}
	for _, m := range []baselines.Method{
		line.Method{SamplesPerEdge: 60},
		node2vec.Method{NumWalks: 8, WalkLength: 20},
		metapath2vec.Method{Pattern: []string{"user", "keyword", "user"}, NumWalks: 8, WalkLength: 20},
		mve.Method{NumWalks: 6, WalkLength: 20, Iterations: 4},
	} {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			emb, err := m.Embed(g, 16, 5)
			if err != nil {
				t.Fatal(err)
			}
			intra := meanSim(emb, g0, g0) + meanSim(emb, g1, g1)
			inter := 2 * meanSim(emb, g0, g1)
			if intra <= inter {
				t.Fatalf("intra %.4f <= inter %.4f", intra/2, inter/2)
			}
		})
	}
}

func meanSim(emb *mat.Dense, a, b []int) float64 {
	var s float64
	var n int
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			s += mat.CosineSim(emb.Row(i), emb.Row(j))
			n++
		}
	}
	return s / float64(n)
}

func TestKGBaselinesBeatRandomOnLinkPrediction(t *testing.T) {
	g := communityGraph(t, 4)
	rng := rand.New(rand.NewSource(6))
	sub, pos, neg, err := eval.LinkPredictionSplit(g, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []baselines.Method{
		rgcn.Method{Epochs: 60, Batch: 64},
		simple.Method{Epochs: 100},
	} {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			emb, err := m.Embed(sub, 16, 9)
			if err != nil {
				t.Fatal(err)
			}
			auc := eval.LinkPredictionAUC(emb, pos, neg)
			if auc < 0.6 {
				t.Fatalf("AUC %.3f barely better than chance", auc)
			}
		})
	}
}

func TestMetapath2VecRejectsBadPatterns(t *testing.T) {
	g := communityGraph(t, 5)
	cases := []metapath2vec.Method{
		{Pattern: []string{"user"}},
		{Pattern: []string{"user", "keyword", "keyword"}},
		{Pattern: []string{"user", "nosuch", "user"}},
	}
	for i, m := range cases {
		if _, err := m.Embed(g, 8, 1); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMetapath2VecDefaultPattern(t *testing.T) {
	g := communityGraph(t, 6)
	p := metapath2vec.DefaultPattern(g)
	if len(p) != 3 || p[0] != p[2] {
		t.Fatalf("default pattern %v", p)
	}
	if p[0] != "user" {
		t.Fatalf("default pattern should start at the labeled type, got %v", p)
	}
	m := metapath2vec.Method{Pattern: p, NumWalks: 2, WalkLength: 10}
	if _, err := m.Embed(g, 8, 1); err != nil {
		t.Fatalf("default pattern failed to embed: %v", err)
	}
}

func TestNode2VecNameReflectsParams(t *testing.T) {
	if (node2vec.Method{P: 1, Q: 1}).Name() != "DeepWalk" {
		t.Fatal("P=Q=1 should be DeepWalk")
	}
	if (node2vec.Method{P: 0.5, Q: 2}).Name() != "Node2Vec" {
		t.Fatal("biased should be Node2Vec")
	}
}

func TestBaselinesRejectEmptyGraph(t *testing.T) {
	b := graph.NewBuilder()
	b.NodeType("x")
	b.NodeType("y")
	b.AddNode(0, "a")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []baselines.Method{
		line.Method{}, node2vec.Method{}, hin2vec.Method{},
		mve.Method{}, rgcn.Method{}, simple.Method{},
	} {
		if _, err := m.Embed(g, 8, 1); err == nil {
			t.Errorf("%s: expected error on edgeless graph", m.Name())
		}
	}
}
