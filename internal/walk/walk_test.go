package walk

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"transn/internal/graph"
	"transn/internal/rngstream"
)

func TestAliasMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d freq %.4f want %.4f", i, got, want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := NewAlias([]float64{5})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single-outcome alias must always return 0")
		}
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestAliasPanics(t *testing.T) {
	for _, ws := range [][]float64{{}, {0, 0}, {1, -1}} {
		func() {
			defer func() { recover() }()
			NewAlias(ws)
			t.Errorf("NewAlias(%v) should panic", ws)
		}()
	}
}

// Property: alias sampling over random weights is within 2% of expected
// frequency for every outcome.
func TestAliasProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		ws := make([]float64, n)
		var total float64
		for i := range ws {
			ws[i] = 0.1 + rng.Float64()
			total += ws[i]
		}
		a := NewAlias(ws)
		counts := make([]int, n)
		const draws = 100000
		for i := 0; i < draws; i++ {
			counts[a.Draw(rng)]++
		}
		for i := range ws {
			if math.Abs(float64(counts[i])/draws-ws[i]/total) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// ratingView builds the paper's Figure 4 book-rating heter-view:
// readers R1,R2,R3 and books B1,B2,B3 with rating weights.
// R1-B1:5, R1-B2:1, R2-B2:5, R2-B3:2, R3-B2:1, R3-B3:4.
func ratingView(t testing.TB) (*graph.Graph, *graph.View, map[string]graph.NodeID) {
	b := graph.NewBuilder()
	reader := b.NodeType("reader")
	book := b.NodeType("book")
	rate := b.EdgeType("rating")
	ids := map[string]graph.NodeID{}
	for _, n := range []string{"R1", "R2", "R3"} {
		ids[n] = b.AddNode(reader, n)
	}
	for _, n := range []string{"B1", "B2", "B3"} {
		ids[n] = b.AddNode(book, n)
	}
	b.AddEdge(ids["R1"], ids["B1"], rate, 5)
	b.AddEdge(ids["R1"], ids["B2"], rate, 1)
	b.AddEdge(ids["R2"], ids["B2"], rate, 5)
	b.AddEdge(ids["R2"], ids["B3"], rate, 2)
	b.AddEdge(ids["R3"], ids["B2"], rate, 1)
	b.AddEdge(ids["R3"], ids["B3"], rate, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Views()[0], ids
}

func pathAdjacent(v *graph.View, p []int) bool {
	for i := 1; i < len(p); i++ {
		if v.EdgeWeight(p[i-1], p[i]) == 0 {
			return false
		}
	}
	return true
}

func TestSimpleWalkStaysOnEdges(t *testing.T) {
	_, v, _ := ratingView(t)
	rng := rand.New(rand.NewSource(3))
	for l := 0; l < v.NumNodes(); l++ {
		p := Simple{}.Walk(v, l, 20, rng)
		if len(p) != 20 {
			t.Fatalf("walk len %d want 20", len(p))
		}
		if p[0] != l {
			t.Fatal("walk must start at start node")
		}
		if !pathAdjacent(v, p) {
			t.Fatalf("non-adjacent step in %v", p)
		}
	}
}

func TestBiasedWalkPrefersHeavyEdges(t *testing.T) {
	_, v, ids := ratingView(t)
	rng := rand.New(rand.NewSource(4))
	bw := NewBiased(v)
	r1 := v.Local(ids["R1"])
	b1 := v.Local(ids["B1"])
	// From R1, the B1 edge has weight 5 vs B2 weight 1: expect ~5/6.
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := bw.Walk(v, r1, 2, rng)
		if p[1] == b1 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-5.0/6) > 0.02 {
		t.Fatalf("P(B1) = %.4f want %.4f", got, 5.0/6)
	}
}

// TestCorrelatedWalkFigure4 reproduces the paper's Figure 4 walkthrough:
// after the walk R1 → B2 (weight 1), π₂ makes R3 (weight 1, similar) much
// more likely than R2 (weight 5, dissimilar). At B2 the incident weights
// are {1, 5, 1} so Δ=4; π₂(R2)=1-(5-1)/4=0, π₂(R3)=1-(1-1)/4=1 — R2 is
// never chosen and R1/R3 split ∝ π₁ (1 vs 1).
func TestCorrelatedWalkFigure4(t *testing.T) {
	_, v, ids := ratingView(t)
	rng := rand.New(rand.NewSource(5))
	cw := NewCorrelated(v)
	r1 := v.Local(ids["R1"])
	b2 := v.Local(ids["B2"])
	r2 := v.Local(ids["R2"])
	r3 := v.Local(ids["R3"])
	countR2, countR3, trials := 0, 0, 0
	for i := 0; i < 50000; i++ {
		p := cw.Walk(v, r1, 3, rng)
		if len(p) < 3 || p[1] != b2 {
			continue // only analyze walks that stepped to B2
		}
		trials++
		switch p[2] {
		case r2:
			countR2++
		case r3:
			countR3++
		}
	}
	if trials < 1000 {
		t.Fatalf("too few walks through B2: %d", trials)
	}
	if countR2 != 0 {
		t.Fatalf("R2 chosen %d times; π₂ should forbid it", countR2)
	}
	if countR3 == 0 {
		t.Fatal("R3 never chosen after B2")
	}
}

func TestCorrelatedFallsBackOnHomoView(t *testing.T) {
	// On a homo-view the correlated walker must behave like the biased
	// walker (Equation 4 first case): exact distribution check at step 1.
	b := graph.NewBuilder()
	tt := b.NodeType("x")
	et := b.EdgeType("e")
	n0 := b.AddNode(tt, "0")
	n1 := b.AddNode(tt, "1")
	n2 := b.AddNode(tt, "2")
	b.AddEdge(n0, n1, et, 9)
	b.AddEdge(n0, n2, et, 1)
	b.AddEdge(n1, n2, et, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := g.Views()[0]
	if v.Hetero {
		t.Fatal("expected homo-view")
	}
	cw := NewCorrelated(v)
	rng := rand.New(rand.NewSource(6))
	l0 := v.Local(n0)
	l1 := v.Local(n1)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := cw.Walk(v, l0, 2, rng)
		if p[1] == l1 {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.9) > 0.02 {
		t.Fatalf("homo-view correlated walk P = %.4f want 0.9", got)
	}
}

func TestWalkFromIsolatedNodeInSubview(t *testing.T) {
	// A view never contains isolated nodes, but paired-subviews can, if a
	// common node's neighbors are all outside the kept set. Walkers must
	// return the single-node path without panicking.
	_, v, ids := ratingView(t)
	sub := graph.PairedSubview(v, []graph.NodeID{ids["R1"]})
	rng := rand.New(rand.NewSource(7))
	for l := 0; l < sub.NumNodes(); l++ {
		p := Simple{}.Walk(sub, l, 10, rng)
		if len(p) < 1 || p[0] != l {
			t.Fatalf("bad walk %v from %d", p, l)
		}
	}
}

func TestNode2VecReturnBias(t *testing.T) {
	_, v, ids := ratingView(t)
	rng := rand.New(rand.NewSource(8))
	r1 := v.Local(ids["R1"])
	b1 := v.Local(ids["B1"])
	// B1's only neighbor is R1, so from (R1 → B1) the walk must return.
	// Use a path R1 → B2 → x instead: with huge p, returning to R1 is
	// suppressed.
	lowP := Node2Vec{P: 0.01, Q: 1}
	highP := Node2Vec{P: 100, Q: 1}
	countReturns := func(w Node2Vec) int {
		ret := 0
		for i := 0; i < 20000; i++ {
			p := w.Walk(v, r1, 3, rng)
			if len(p) == 3 && p[1] != b1 && p[2] == r1 {
				ret++
			}
		}
		return ret
	}
	retLow := countReturns(lowP)
	retHigh := countReturns(highP)
	if retLow <= retHigh*2 {
		t.Fatalf("low p should return far more often: low=%d high=%d", retLow, retHigh)
	}
}

func TestCorpusConfigWalksFor(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cases := []struct{ deg, want int }{
		{0, 10}, {5, 10}, {10, 10}, {15, 15}, {32, 32}, {100, 32},
	}
	for _, c := range cases {
		if got := cfg.WalksFor(c.deg); got != c.want {
			t.Errorf("WalksFor(%d) = %d want %d", c.deg, got, c.want)
		}
	}
}

func TestCorpusGeneration(t *testing.T) {
	_, v, _ := ratingView(t)
	cfg := CorpusConfig{WalkLength: 10, MinWalksPerNode: 3, MaxWalksPerNode: 5}
	rng := rand.New(rand.NewSource(9))
	paths := Corpus(v, Simple{}, cfg, rng)
	// Every node has degree ≥ 1 < 3 so 3 walks each; 6 nodes → 18 paths.
	if len(paths) != 18 {
		t.Fatalf("corpus size %d want 18", len(paths))
	}
	for _, p := range paths {
		if len(p) < 2 || len(p) > 10 {
			t.Fatalf("bad path length %d", len(p))
		}
		if !pathAdjacent(v, p) {
			t.Fatalf("non-adjacent corpus path %v", p)
		}
	}
}

func TestAdjSymmetry(t *testing.T) {
	g, _, _ := ratingView(t)
	adj := NewAdj(g)
	totalDeg := 0
	for id := 0; id < g.NumNodes(); id++ {
		totalDeg += adj.Degree(graph.NodeID(id))
		ns, ws, ets := adj.Neighbors(graph.NodeID(id))
		for i, nb := range ns {
			// Mirror edge must exist with same weight and type.
			mns, mws, mets := adj.Neighbors(graph.NodeID(nb))
			found := false
			for j, mnb := range mns {
				if int(mnb) == id && mws[j] == ws[i] && mets[j] == ets[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("missing mirror for %d-%d", id, nb)
			}
		}
	}
	if totalDeg != 2*g.NumEdges() {
		t.Fatalf("total degree %d want %d", totalDeg, 2*g.NumEdges())
	}
}

func TestMetaPathWalkFollowsPattern(t *testing.T) {
	// Academic-style graph: author-paper-venue.
	b := graph.NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	venue := b.NodeType("venue")
	ap := b.EdgeType("AP")
	pv := b.EdgeType("PV")
	var as, ps, vs []graph.NodeID
	for i := 0; i < 4; i++ {
		as = append(as, b.AddNode(author, ""))
	}
	for i := 0; i < 4; i++ {
		ps = append(ps, b.AddNode(paper, ""))
	}
	for i := 0; i < 2; i++ {
		vs = append(vs, b.AddNode(venue, ""))
	}
	for i := 0; i < 4; i++ {
		b.AddEdge(as[i], ps[i], ap, 1)
		b.AddEdge(as[i], ps[(i+1)%4], ap, 1)
		b.AddEdge(ps[i], vs[i%2], pv, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	adj := NewAdj(g)
	mp := MetaPath{Adj: adj, Pattern: []graph.NodeType{author, paper, venue, paper, author}}
	rng := rand.New(rand.NewSource(10))
	p := mp.Walk(as[0], 13, rng)
	if len(p) < 5 {
		t.Fatalf("walk too short: %d", len(p))
	}
	wantCycle := []graph.NodeType{author, paper, venue, paper}
	for i, id := range p {
		if g.NodeType(id) != wantCycle[i%4] {
			t.Fatalf("position %d has type %d want %d", i, g.NodeType(id), wantCycle[i%4])
		}
	}
	// Starting from a wrong-typed node yields nil.
	if got := mp.Walk(ps[0], 5, rng); got != nil {
		t.Fatalf("wrong-type start should return nil, got %v", got)
	}
}

// TestAppendWalkMatchesWalk checks that AppendWalk with reused buffers
// makes the walks and rng draws Walk makes with fresh ones, keeps what
// dst already held, and allocates nothing once its buffers are grown.
func TestAppendWalkMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		v := randomView(seed)
		cw := NewCorrelated(v)
		fresh, reused := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		dst := []int{-1}
		var probs []float64
		for i := 0; i < 50; i++ {
			start, length := i%v.NumNodes(), 2+i%9
			want := cw.Walk(v, start, length, fresh)
			dst, probs = cw.AppendWalk(dst[:1], probs, v, start, length, reused)
			if dst[0] != -1 || !slices.Equal(dst[1:], want) {
				t.Fatalf("seed %d walk %d: AppendWalk gave %v after the prefix, Walk %v", seed, i, dst, want)
			}
			if a, b := fresh.Int63(), reused.Int63(); a != b {
				t.Fatalf("seed %d walk %d: rng streams diverged", seed, i)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst, probs = cw.AppendWalk(dst[:0], probs, v, 0, 16, reused)
		})
		if allocs != 0 {
			t.Fatalf("seed %d: AppendWalk allocates %v times with grown buffers", seed, allocs)
		}
	}
}

func BenchmarkCorrelatedWalk(b *testing.B) {
	_, v, _ := ratingView(b)
	cw := NewCorrelated(v)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw.Walk(v, i%v.NumNodes(), 80, rng)
	}
}

// Property: corpus paths always start at distinct configured nodes, have
// lengths in [2, WalkLength], and per-node counts follow WalksFor.
func TestCorpusProperty(t *testing.T) {
	f := func(seed int64) bool {
		_, v, _ := ratingViewSeed(seed)
		cfg := CorpusConfig{WalkLength: 8, MinWalksPerNode: 2, MaxWalksPerNode: 4}
		rng := rand.New(rand.NewSource(seed))
		paths := Corpus(v, Simple{}, cfg, rng)
		counts := make([]int, v.NumNodes())
		for _, p := range paths {
			if len(p) < 2 || len(p) > 8 {
				return false
			}
			counts[p[0]]++
		}
		for l := 0; l < v.NumNodes(); l++ {
			if counts[l] != cfg.WalksFor(v.Degree(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// randomView builds a random bipartite heter-view with rng-driven size
// and weights, for property tests over many graph shapes. Every node is
// attached to at least one edge (views never contain isolated nodes).
func randomView(seed int64) *graph.View {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	left := b.NodeType("left")
	right := b.NodeType("right")
	et := b.EdgeType("e")
	nl := 2 + rng.Intn(10)
	nr := 2 + rng.Intn(10)
	var ls, rs []graph.NodeID
	for i := 0; i < nl; i++ {
		ls = append(ls, b.AddNode(left, ""))
	}
	for i := 0; i < nr; i++ {
		rs = append(rs, b.AddNode(right, ""))
	}
	seen := map[[2]graph.NodeID]bool{}
	add := func(u, v graph.NodeID) {
		k := [2]graph.NodeID{u, v}
		if seen[k] {
			return
		}
		seen[k] = true
		b.AddEdge(u, v, et, 0.5+4.5*rng.Float64())
	}
	// Spanning attachment so no node is isolated, then random extras.
	for i, u := range ls {
		add(u, rs[i%nr])
	}
	for _, v := range rs {
		add(ls[rng.Intn(nl)], v)
	}
	extra := rng.Intn(2 * nl * nr / 3)
	for i := 0; i < extra; i++ {
		add(ls[rng.Intn(nl)], rs[rng.Intn(nr)])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g.Views()[0]
}

// walkCounts tallies corpus paths by start node and verifies every
// consecutive pair is a real edge of the view.
func walkCounts(t *testing.T, v *graph.View, paths [][]int) []int {
	t.Helper()
	counts := make([]int, v.NumNodes())
	for _, p := range paths {
		if len(p) < 2 {
			t.Fatalf("corpus contains a too-short path %v", p)
		}
		counts[p[0]]++
		if !pathAdjacent(v, p) {
			t.Fatalf("non-adjacent step in path %v", p)
		}
	}
	return counts
}

// Property (CorpusParallel vs Corpus): for random graphs, seeds and
// worker counts, the sharded corpus produces exactly the same per-node
// walk counts as the serial corpus and walks only real edges.
func TestCorpusParallelProperty(t *testing.T) {
	cfg := CorpusConfig{WalkLength: 9, MinWalksPerNode: 2, MaxWalksPerNode: 5}
	f := func(seed int64) bool {
		v := randomView(seed)
		serial := Corpus(v, NewCorrelated(v), cfg, rand.New(rand.NewSource(seed)))
		want := walkCounts(t, v, serial)
		for _, workers := range []int{1, 2, 3, 8, 100} {
			paths := CorpusParallel(v, NewCorrelated(v), cfg, seed, workers)
			got := walkCounts(t, v, paths)
			for l := range want {
				if got[l] != want[l] {
					t.Logf("seed %d workers %d: node %d count %d want %d", seed, workers, l, got[l], want[l])
					return false
				}
				if got[l] != cfg.WalksFor(v.Degree(l)) {
					t.Logf("seed %d workers %d: node %d count %d violates WalksFor", seed, workers, l, got[l])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// CorpusParallel with one worker must be byte-identical to the serial
// Corpus under the shard-0 stream: Workers=1 IS the serial path.
func TestCorpusParallelOneWorkerMatchesSerial(t *testing.T) {
	_, v, _ := ratingView(t)
	cfg := CorpusConfig{WalkLength: 10, MinWalksPerNode: 3, MaxWalksPerNode: 5}
	const seed = 77
	got := CorpusParallel(v, NewCorrelated(v), cfg, seed, 1)
	want := Corpus(v, NewCorrelated(v), cfg, rngstream.New(seed, 0))
	if len(got) != len(want) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("path %d lengths differ", i)
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("path %d diverges at step %d", i, j)
			}
		}
	}
}

// CorpusParallelStats must return the byte-identical corpus plus a
// worker-time breakdown that covers every shard.
func TestCorpusParallelStatsMatchesCorpusParallel(t *testing.T) {
	v := randomView(41)
	cfg := CorpusConfig{WalkLength: 10, MinWalksPerNode: 2, MaxWalksPerNode: 4}
	for _, workers := range []int{1, 3} {
		want := CorpusParallel(v, NewCorrelated(v), cfg, 5, workers)
		got, st := CorpusParallelStats(v, NewCorrelated(v), cfg, 5, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d paths vs %d", workers, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: path %d differs", workers, i)
				}
			}
		}
		if st.Wall <= 0 || len(st.Workers) == 0 {
			t.Fatalf("workers=%d: empty stats %+v", workers, st)
		}
		shards := 0
		for _, w := range st.Workers {
			shards += w.Shards
		}
		if shards <= 0 {
			t.Fatalf("workers=%d: no shards attributed", workers)
		}
	}
}

// CorpusParallel must be reproducible for a fixed (seed, workers)
// regardless of goroutine scheduling: shard outputs concatenate in
// shard order.
func TestCorpusParallelDeterministicPerWorkerCount(t *testing.T) {
	v := randomView(123)
	cfg := CorpusConfig{WalkLength: 8, MinWalksPerNode: 2, MaxWalksPerNode: 4}
	for _, workers := range []int{2, 4, 7} {
		a := CorpusParallel(v, NewCorrelated(v), cfg, 9, workers)
		b := CorpusParallel(v, NewCorrelated(v), cfg, 9, workers)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: sizes %d vs %d", workers, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("workers=%d: path %d step %d differs", workers, i, j)
				}
			}
		}
	}
}

// Prepare must build every cache the walkers would build lazily, so a
// prepared walker is read-only under concurrent walks.
func TestPrepareBuildsAllCaches(t *testing.T) {
	_, v, _ := ratingView(t)
	cw := NewCorrelated(v)
	cw.Prepare()
	for l := 0; l < v.NumNodes(); l++ {
		if ns, _ := v.Neighbors(l); len(ns) == 0 {
			continue // isolated nodes have no table to build
		}
		if cw.biased.tables[l] == nil {
			t.Fatalf("alias table %d not built", l)
		}
		if cw.delta[l] < 0 {
			t.Fatalf("delta %d not built", l)
		}
	}
	// Subviews (as used by cross-view sampling) must prepare cleanly too.
	sub := graph.PairedSubview(v, []graph.NodeID{v.Global(0)})
	NewCorrelated(sub).Prepare()
}

// ratingViewSeed builds the Figure 4 view without a testing.TB, for
// property tests.
func ratingViewSeed(seed int64) (*graph.Graph, *graph.View, map[string]graph.NodeID) {
	b := graph.NewBuilder()
	reader := b.NodeType("reader")
	book := b.NodeType("book")
	rate := b.EdgeType("rating")
	ids := map[string]graph.NodeID{}
	for _, n := range []string{"R1", "R2", "R3"} {
		ids[n] = b.AddNode(reader, n)
	}
	for _, n := range []string{"B1", "B2", "B3"} {
		ids[n] = b.AddNode(book, n)
	}
	rng := rand.New(rand.NewSource(seed))
	b.AddEdge(ids["R1"], ids["B1"], rate, 1+4*rng.Float64())
	b.AddEdge(ids["R1"], ids["B2"], rate, 1+4*rng.Float64())
	b.AddEdge(ids["R2"], ids["B2"], rate, 1+4*rng.Float64())
	b.AddEdge(ids["R2"], ids["B3"], rate, 1+4*rng.Float64())
	b.AddEdge(ids["R3"], ids["B2"], rate, 1+4*rng.Float64())
	b.AddEdge(ids["R3"], ids["B3"], rate, 1+4*rng.Float64())
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, g.Views()[0], ids
}
