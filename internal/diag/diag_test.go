package diag

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"transn/internal/graph"
	"transn/internal/obs"
	"transn/internal/transn"
)

// testGraph builds the two-community user/keyword network the transn
// tests use: a UU homo-view and a UK heter-view sharing the user nodes,
// so cross-view pairs (and translators) exist.
func testGraph(t testing.TB, usersPerGroup, keywordsPerGroup int, seed int64) *graph.Graph {
	t.Helper()
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
		n := len(users[g])
		for i := 0; i < n; i++ {
			addOnce(users[g][i], users[g][(i+1)%n], uu, 1)
			addOnce(users[g][i], users[g][rng.Intn(n)], uu, 1)
		}
		for _, u := range users[g] {
			for j := 0; j < 3; j++ {
				kw := kws[g][rng.Intn(len(kws[g]))]
				addOnce(u, kw, uk, 1+4*rng.Float64())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func quickCfg() transn.Config {
	cfg := transn.DefaultConfig()
	cfg.Dim = 12
	cfg.WalkLength = 8
	cfg.MinWalksPerNode = 2
	cfg.MaxWalksPerNode = 4
	cfg.Iterations = 3
	cfg.CrossPathsPerPair = 10
	cfg.Workers = 1
	return cfg
}

// TestAnalyzeHealthyModel pins the acceptance criteria for a normal
// run: a valid healthy document with full per-view walk coverage,
// finite embeddings, and finite per-pair round-trip errors.
func TestAnalyzeHealthyModel(t *testing.T) {
	g := testGraph(t, 8, 4, 1)
	m, err := transn.Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	doc := Analyze(m, Options{Name: "test"})
	if err := doc.Err(); err != nil {
		t.Fatalf("healthy model produced error findings: %v\nfindings: %+v", err, doc.Findings)
	}
	if !doc.Healthy {
		t.Fatal("healthy model: doc.Healthy = false")
	}
	if doc.Schema != Schema || doc.Name != "test" {
		t.Fatalf("bad header: schema %q name %q", doc.Schema, doc.Name)
	}

	if doc.Model == nil || len(doc.Model.Views) != len(m.Views()) {
		t.Fatalf("model section missing or wrong view count: %+v", doc.Model)
	}
	for _, vh := range doc.Model.Views {
		if vh.NaN != 0 || vh.Inf != 0 {
			t.Fatalf("view %d reported non-finite elements: %+v", vh.View, vh)
		}
		if vh.NormMean <= 0 || vh.NormMin <= 0 {
			t.Fatalf("view %d has degenerate norms: %+v", vh.View, vh)
		}
		if vh.EffectiveDims <= 1 {
			t.Fatalf("view %d effective dims %.2f — trained embedding should use more than one", vh.View, vh.EffectiveDims)
		}
	}
	if len(m.ViewPairs()) > 0 && len(doc.Model.Translators) == 0 {
		t.Fatal("model has view pairs but no translator health")
	}
	for _, th := range doc.Model.Translators {
		if th.Segments == 0 {
			t.Fatalf("translator pair %d scored no segments", th.Pair)
		}
		for s := 0; s < 2; s++ {
			if !finite(th.TranslationMSE[s]) || !finite(th.RoundTripMSE[s]) {
				t.Fatalf("translator pair %d has non-finite residuals: %+v", th.Pair, th)
			}
		}
	}

	if len(doc.Corpus) != len(m.Views()) {
		t.Fatalf("corpus section has %d entries, want %d", len(doc.Corpus), len(m.Views()))
	}
	for _, cov := range doc.Corpus {
		if cov.Coverage <= 0.95 {
			t.Fatalf("view %d coverage %.3f, want > 0.95", cov.View, cov.Coverage)
		}
		if cov.ContextPairsW1 == 0 {
			t.Fatalf("view %d yielded no W1 context pairs", cov.View)
		}
		if cov.Hetero && cov.ContextPairsW2 == 0 {
			t.Fatalf("heter-view %d yielded no W2 context pairs", cov.View)
		}
		if !cov.Hetero && cov.ContextPairsW2 != 0 {
			t.Fatalf("homo-view %d yielded W2 context pairs", cov.View)
		}
		if cov.BiasRatio <= 0 {
			t.Fatalf("view %d bias ratio %.3f", cov.View, cov.BiasRatio)
		}
	}

	if doc.Convergence == nil || doc.Convergence.Iterations != 3 {
		t.Fatalf("convergence section wrong: %+v", doc.Convergence)
	}

	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("written document failed Validate: %v", err)
	}
}

// TestAnalyzeCorruptedModel injects NaN into a trained model and checks
// the document flags it: unhealthy, a named embedding.nonfinite error
// finding scoped to the view, Err() non-nil — and still valid JSON.
func TestAnalyzeCorruptedModel(t *testing.T) {
	g := testGraph(t, 8, 4, 2)
	m, err := transn.Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	m.ViewTable(0).Set(0, 0, math.NaN())
	doc := Analyze(m, Options{SkipCorpus: true})
	if doc.Healthy {
		t.Fatal("NaN-corrupted model reported healthy")
	}
	if err := doc.Err(); err == nil {
		t.Fatal("Err() nil for corrupted model")
	} else if !strings.Contains(err.Error(), CodeEmbeddingNonFinite) {
		t.Fatalf("Err() does not name the finding: %v", err)
	}
	found := false
	for _, f := range doc.Findings {
		if f.Code == CodeEmbeddingNonFinite && f.Severity == SeverityError && f.View == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no embedding.nonfinite error finding for view 0: %+v", doc.Findings)
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatalf("corrupted-model document failed to encode: %v", err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("corrupted-model document failed Validate: %v", err)
	}
}

// TestAnalyzeCorruptedTranslator covers the translator parameter sweep.
func TestAnalyzeCorruptedTranslator(t *testing.T) {
	g := testGraph(t, 8, 4, 3)
	m, err := transn.Train(g, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ViewPairs()) == 0 {
		t.Fatal("test graph produced no view pairs")
	}
	m.Translators(0)[0].Ws[0].Set(0, 0, math.Inf(1))
	doc := Analyze(m, Options{SkipCorpus: true})
	found := false
	for _, f := range doc.Findings {
		if f.Code == CodeTranslatorNonFinite && f.Severity == SeverityError && f.Pair == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no translator.nonfinite error finding for pair 0: %+v", doc.Findings)
	}
	if doc.Err() == nil {
		t.Fatal("Err() nil for corrupted translator")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not json", `{`},
		{"wrong schema", `{"schema":"x/v9","name":"a","healthy":true,"findings":[]}`},
		{"missing name", `{"schema":"transn.diagnostics/v1","healthy":true,"findings":[]}`},
		{"empty name", `{"schema":"transn.diagnostics/v1","name":"","healthy":true,"findings":[]}`},
		{"missing healthy", `{"schema":"transn.diagnostics/v1","name":"a","findings":[]}`},
		{"missing findings", `{"schema":"transn.diagnostics/v1","name":"a","healthy":true}`},
		{"bad severity", `{"schema":"transn.diagnostics/v1","name":"a","healthy":true,"findings":[{"severity":"fatal","code":"x","view":-1,"pair":-1,"message":"m"}]}`},
		{"empty code", `{"schema":"transn.diagnostics/v1","name":"a","healthy":true,"findings":[{"severity":"info","code":"","view":-1,"pair":-1,"message":"m"}]}`},
		{"healthy contradicts error finding", `{"schema":"transn.diagnostics/v1","name":"a","healthy":true,"findings":[{"severity":"error","code":"x","view":-1,"pair":-1,"message":"m"}]}`},
		{"unhealthy without error finding", `{"schema":"transn.diagnostics/v1","name":"a","healthy":false,"findings":[]}`},
		{"coverage out of range", `{"schema":"transn.diagnostics/v1","name":"a","healthy":true,"findings":[],"corpus":[{"view":0,"coverage":1.5}]}`},
	}
	for _, tc := range cases {
		if err := Validate([]byte(tc.doc)); err == nil {
			t.Errorf("%s: Validate accepted invalid document", tc.name)
		}
	}
	good := `{"schema":"transn.diagnostics/v1","name":"a","healthy":true,"findings":[],"future_field":123}`
	if err := Validate([]byte(good)); err != nil {
		t.Errorf("Validate rejected document with unknown extra field: %v", err)
	}
}

// TestDiagnosticsObserveOnly pins the acceptance criterion that
// diagnostics never perturb training: with two workers, a run
// with a convergence monitor in the observer chain, telemetry on, and a
// full post-training Analyze produces byte-identical embeddings to a
// bare run with the same seed.
func TestDiagnosticsObserveOnly(t *testing.T) {
	g := testGraph(t, 8, 4, 4)
	base := quickCfg()
	base.Workers = 2

	bare, err := transn.Train(g, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	mon := NewMonitor(func(obs.TrainEvent) {}, MonitorOptions{})
	cfg.Observer = mon.Observe
	cfg.Telemetry = obs.NewRun()
	observed, err := transn.Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := Analyze(observed, Options{}) // full analysis, corpus included
	if doc == nil {
		t.Fatal("Analyze returned nil")
	}

	if !bare.Embeddings().Equal(observed.Embeddings(), 0) {
		t.Fatal("final embeddings differ with diagnostics attached")
	}
	for vi := range bare.Views() {
		a, b := bare.ViewTable(vi), observed.ViewTable(vi)
		if a == nil || b == nil {
			continue
		}
		if !a.Equal(b, 0) {
			t.Fatalf("view %d embedding table differs with diagnostics attached", vi)
		}
	}
	if mon.Report().Iterations != base.Iterations {
		t.Fatalf("monitor saw %d iterations, want %d", mon.Report().Iterations, base.Iterations)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
