package transn

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/walk"
)

// socialGraph builds a two-view network with planted communities: users
// split into two groups with dense intra-group friendships (UU, homo) and
// group-specific keyword usage (UK, heter). Cross-view information flows
// through the shared user nodes.
func socialGraph(t testing.TB, usersPerGroup, keywordsPerGroup int, seed int64) *graph.Graph {
	return buildSocialGraph(t, usersPerGroup, keywordsPerGroup, seed, false)
}

// threeViewGraph is socialGraph plus a third view: keywords of one group
// co-occur (KK, homo). It has two view-pairs, UU–UK over the users and
// UK–KK over the keywords, which share the UK view.
func threeViewGraph(t testing.TB, usersPerGroup, keywordsPerGroup int, seed int64) *graph.Graph {
	return buildSocialGraph(t, usersPerGroup, keywordsPerGroup, seed, true)
}

func buildSocialGraph(t testing.TB, usersPerGroup, keywordsPerGroup int, seed int64, cooccur bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	user := b.NodeType("user")
	keyword := b.NodeType("keyword")
	uu := b.EdgeType("UU")
	uk := b.EdgeType("UK")

	var users [2][]graph.NodeID
	var kws [2][]graph.NodeID
	for g := 0; g < 2; g++ {
		for i := 0; i < usersPerGroup; i++ {
			id := b.AddNode(user, "")
			b.SetLabel(id, g)
			users[g] = append(users[g], id)
		}
		for i := 0; i < keywordsPerGroup; i++ {
			kws[g] = append(kws[g], b.AddNode(keyword, ""))
		}
	}
	seen := map[[2]graph.NodeID]bool{}
	addOnce := func(u, v graph.NodeID, et graph.EdgeType, w float64) {
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
		// Intra-group friendships: ring + random chords.
		n := len(users[g])
		for i := 0; i < n; i++ {
			addOnce(users[g][i], users[g][(i+1)%n], uu, 1)
			addOnce(users[g][i], users[g][rng.Intn(n)], uu, 1)
		}
		// Keyword usage: each user posts 3 group keywords, weighted.
		for _, u := range users[g] {
			for j := 0; j < 3; j++ {
				kw := kws[g][rng.Intn(len(kws[g]))]
				addOnce(u, kw, uk, 1+4*rng.Float64())
			}
		}
	}
	// Sparse cross-group noise.
	for i := 0; i < usersPerGroup/4+1; i++ {
		addOnce(users[0][rng.Intn(usersPerGroup)], users[1][rng.Intn(usersPerGroup)], uu, 1)
	}
	if cooccur {
		kk := b.EdgeType("KK")
		for _, group := range kws {
			for i, k := range group {
				addOnce(k, group[(i+1)%len(group)], kk, 1)
				addOnce(k, group[rng.Intn(len(group))], kk, 1+rng.Float64())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func quickCfg() Config {
	c := DefaultConfig()
	c.Dim = 16
	c.WalkLength = 12
	c.MinWalksPerNode = 3
	c.MaxWalksPerNode = 6
	c.Iterations = 3
	c.CrossPathLen = 4
	c.CrossPathsPerPair = 30
	// Serial by default so assertions about exact reproducibility hold on
	// any machine; concurrency-specific behaviour is covered by
	// determinism_test.go and stress_test.go.
	c.Workers = 1
	return c
}

func TestTrainProducesEmbeddingsForAllNodes(t *testing.T) {
	g := socialGraph(t, 12, 6, 1)
	m, err := Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	emb := m.Embeddings()
	if emb.R != g.NumNodes() || emb.C != 16 {
		t.Fatalf("embeddings %dx%d want %dx16", emb.R, emb.C, g.NumNodes())
	}
	zeroRows := 0
	for i := 0; i < emb.R; i++ {
		if mat.Norm2(emb.Row(i)) == 0 {
			zeroRows++
		}
	}
	if zeroRows > 0 {
		t.Fatalf("%d nodes got zero embeddings", zeroRows)
	}
	for _, v := range emb.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite embedding value")
		}
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	g := socialGraph(t, 8, 4, 2)
	cfg := quickCfg()
	cfg.Seed = 99
	m1, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Embeddings().Equal(m2.Embeddings(), 0) {
		t.Fatal("same seed must give identical embeddings")
	}
	cfg.Seed = 100
	m3, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Embeddings().Equal(m3.Embeddings(), 1e-12) {
		t.Fatal("different seeds should give different embeddings")
	}
}

func TestCommunityStructureCaptured(t *testing.T) {
	g := socialGraph(t, 15, 8, 3)
	cfg := quickCfg()
	cfg.Iterations = 5
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := m.Embeddings()
	// Mean intra-group vs inter-group cosine similarity over users.
	var g0, g1 []int
	for _, id := range g.LabeledNodes() {
		if g.Label(id) == 0 {
			g0 = append(g0, int(id))
		} else {
			g1 = append(g1, int(id))
		}
	}
	intra := meanPairSim(emb, g0, g0) + meanPairSim(emb, g1, g1)
	inter := 2 * meanPairSim(emb, g0, g1)
	if intra <= inter {
		t.Fatalf("intra-group similarity %.4f should exceed inter-group %.4f", intra/2, inter/2)
	}
}

func meanPairSim(emb *mat.Dense, a, b []int) float64 {
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
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

func TestSingleViewLossDecreases(t *testing.T) {
	g := socialGraph(t, 12, 6, 4)
	cfg := quickCfg()
	cfg.Iterations = 6
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.History) != 6 {
		t.Fatalf("history length %d", len(m.History))
	}
	first := m.History[0].SingleLoss
	last := m.History[len(m.History)-1].SingleLoss
	if !(last < first) {
		t.Fatalf("single-view loss %.4f → %.4f did not decrease", first, last)
	}
}

func TestAblationVariantsTrain(t *testing.T) {
	g := socialGraph(t, 8, 4, 5)
	base := quickCfg()
	variants := map[string]func(*Config){
		"NoCrossView":      func(c *Config) { c.NoCrossView = true },
		"SimpleWalk":       func(c *Config) { c.SimpleWalk = true },
		"SimpleTranslator": func(c *Config) { c.SimpleTranslator = true },
		"NoTranslation":    func(c *Config) { c.NoTranslation = true },
		"NoReconstruction": func(c *Config) { c.NoReconstruction = true },
	}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		m, err := Train(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		emb := m.Embeddings()
		for _, v := range emb.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite embedding", name)
			}
		}
	}
}

func TestNoCrossViewSkipsPairs(t *testing.T) {
	g := socialGraph(t, 8, 4, 6)
	cfg := quickCfg()
	cfg.NoCrossView = true
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ViewPairs()) != 0 {
		t.Fatal("NoCrossView should not build view pairs")
	}
	for _, st := range m.History {
		if st.CrossLoss != 0 {
			t.Fatal("NoCrossView recorded cross loss")
		}
	}
}

func TestSimpleWalkUsesSimpleWalker(t *testing.T) {
	g := socialGraph(t, 8, 4, 7)
	cfg := quickCfg()
	cfg.SimpleWalk = true
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.walkerFor(0).(walk.Simple); !ok {
		t.Fatalf("SimpleWalk walker type %T", m.walkerFor(0))
	}
}

func TestConfigValidation(t *testing.T) {
	g := socialGraph(t, 6, 3, 8)
	bad := quickCfg()
	bad.NoTranslation = true
	bad.NoReconstruction = true
	if _, err := Train(g, bad); err == nil {
		t.Fatal("expected rejection of both-tasks-disabled config")
	}
	bad2 := quickCfg()
	bad2.MinWalksPerNode = 10
	bad2.MaxWalksPerNode = 2
	if _, err := Train(g, bad2); err == nil {
		t.Fatal("expected rejection of Min > Max")
	}
	bad3 := quickCfg()
	bad3.Dim = -1
	if _, err := Train(g, bad3); err == nil {
		t.Fatal("expected rejection of negative Dim")
	}
}

func TestInnerProductLossMode(t *testing.T) {
	g := socialGraph(t, 8, 4, 9)
	cfg := quickCfg()
	cfg.Loss = LossInnerProduct
	cfg.Iterations = 2
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := m.Embeddings()
	for _, v := range emb.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("inner-product mode produced non-finite embedding")
		}
	}
}

func TestViewEmbeddingAccessor(t *testing.T) {
	g := socialGraph(t, 8, 4, 10)
	m, err := Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	views := m.Views()
	// Any node of view 0 has an embedding there.
	id := views[0].Global(0)
	if e := m.ViewEmbedding(0, id); len(e) != 16 {
		t.Fatalf("view embedding length %d", len(e))
	}
	// A keyword node is absent from the UU view.
	var kw graph.NodeID = -1
	for _, n := range g.Nodes {
		if g.NodeTypeNames[n.Type] == "keyword" {
			kw = n.ID
			break
		}
	}
	if kw == -1 {
		t.Fatal("no keyword node found")
	}
	if e := m.ViewEmbedding(0, kw); e != nil {
		t.Fatal("keyword should have no UU-view embedding")
	}
}

func TestCrossViewPullsViewsTogether(t *testing.T) {
	// The defining property of the cross-view algorithm: translating a
	// common node's embedding from view i should land near its view-j
	// embedding — closer than chance. We compare against the NoCrossView
	// ablation trained with the same seed.
	g := socialGraph(t, 12, 6, 11)
	cfg := quickCfg()
	cfg.Iterations = 5
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ViewPairs()) == 0 {
		t.Fatal("no view pairs in test graph")
	}
	pr := m.ViewPairs()[0]
	tr := m.Translators(0)
	if tr[0] == nil {
		t.Fatal("missing translator")
	}
	L := m.Cfg.CrossPathLen
	if len(pr.Common) < L {
		t.Skip("not enough common nodes")
	}
	// Build a segment from the first L common nodes and translate.
	A := mat.New(L, m.Cfg.Dim)
	T := mat.New(L, m.Cfg.Dim)
	for k := 0; k < L; k++ {
		copy(A.Row(k), m.ViewEmbedding(pr.I, pr.Common[k]))
		copy(T.Row(k), m.ViewEmbedding(pr.J, pr.Common[k]))
	}
	out := tr[0].Translate(A)
	err2 := mat.Sub(nil, out, T).FrobeniusNorm()
	base := mat.Sub(nil, A, T).FrobeniusNorm()
	if math.IsNaN(err2) {
		t.Fatal("translation produced NaN")
	}
	// The trained translator should not be wildly worse than identity.
	if err2 > 3*base+1 {
		t.Fatalf("translated error %.4f vs untranslated %.4f", err2, base)
	}
}

func BenchmarkTrainSmall(b *testing.B) {
	g := socialGraph(b, 10, 5, 1)
	cfg := quickCfg()
	cfg.Iterations = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelTrainingDeterministic(t *testing.T) {
	// Training on all cores (Workers=0) is reproducible for a fixed
	// seed.
	g := socialGraph(t, 10, 5, 12)
	cfg := quickCfg()
	cfg.Workers = 0 // auto: NumCPU
	m1, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Embeddings().Equal(m2.Embeddings(), 0) {
		t.Fatal("parallel training must be deterministic for a fixed seed")
	}
	// Quality sanity: parallel training still learns communities.
	emb := m1.Embeddings()
	var g0, g1 []int
	for _, id := range g.LabeledNodes() {
		if g.Label(id) == 0 {
			g0 = append(g0, int(id))
		} else {
			g1 = append(g1, int(id))
		}
	}
	intra := meanPairSim(emb, g0, g0) + meanPairSim(emb, g1, g1)
	inter := 2 * meanPairSim(emb, g0, g1)
	if intra <= inter {
		t.Fatalf("parallel training lost community structure: intra %.4f inter %.4f", intra/2, inter/2)
	}
}

// TestCrossViewAlignsViewSpaces verifies the mechanism DESIGN.md relies
// on: after training, a common node's (direction-normalized) embeddings
// in the two views of a pair are substantially more similar than under
// the NoCrossView ablation, where the view spaces are independent.
func TestCrossViewAlignsViewSpaces(t *testing.T) {
	g := socialGraph(t, 15, 8, 31)
	cfg := quickCfg()
	cfg.Iterations = 6
	cfg.CrossPathsPerPair = 80

	alignment := func(m *Model) float64 {
		if len(m.ViewPairs()) == 0 {
			t.Fatal("no view pairs")
		}
		pr := m.ViewPairs()[0]
		var sum float64
		var n int
		for _, id := range pr.Common {
			a := m.ViewEmbedding(pr.I, id)
			b := m.ViewEmbedding(pr.J, id)
			if a == nil || b == nil {
				continue
			}
			sum += mat.CosineSim(a, b)
			n++
		}
		return sum / float64(n)
	}
	full, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alignedSim := alignment(full)

	// NoCrossView builds no pairs, so train a second full model with the
	// cross-view *embedding updates* neutralized via zero LR instead.
	cfg2 := cfg
	cfg2.LRCross = 1e-12
	ablated, err := Train(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	unalignedSim := alignment(ablated)

	if alignedSim <= unalignedSim {
		t.Fatalf("cross-view did not align view spaces: %.4f (full) vs %.4f (zero cross LR)",
			alignedSim, unalignedSim)
	}
}
