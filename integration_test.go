package repro

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"transn/internal/dataset"
	"transn/internal/eval"
	"transn/internal/graph"
	"transn/internal/obs"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// TestEndToEndPipeline exercises the complete stack the way a user
// would: generate a dataset, serialize it, re-load it, train TransN,
// persist the model, reload it, and evaluate on both tasks.
func TestEndToEndPipeline(t *testing.T) {
	g := dataset.AMiner(dataset.Quick, 5)

	// TSV round trip.
	var buf bytes.Buffer
	if err := graph.Store(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("TSV round trip changed the graph")
	}

	// Train on the reloaded graph.
	cfg := transn.DefaultConfig()
	cfg.Dim = 24
	cfg.WalkLength = 15
	cfg.MinWalksPerNode = 3
	cfg.MaxWalksPerNode = 6
	cfg.Iterations = 4
	cfg.CrossPathLen = 4
	cfg.CrossPathsPerPair = 40
	// Exercise the worker pool (walk + skip-gram sharding) while keeping
	// the run reproducible on any machine, with telemetry enabled the
	// way `transn train -report -events` wires it.
	cfg.DeterministicApply = true
	cfg.Telemetry = obs.NewRun()
	events := 0
	cfg.Observer = func(obs.TrainEvent) { events++ }
	model, err := transn.Train(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no training events observed")
	}
	var rbuf bytes.Buffer
	if err := obs.WriteReport(&rbuf, model.Report()); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(rbuf.Bytes()); err != nil {
		t.Fatalf("end-to-end training report invalid: %v", err)
	}

	// Persist + reload through the model file format.
	src, err := snapfmt.FromModel(model, g2)
	if err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(t.TempDir(), "model.snap")
	if err := snapfmt.WriteFile(mp, src); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfmt.Open(mp, snapfmt.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	reloaded, err := snap.Model(g2)
	if err != nil {
		t.Fatal(err)
	}
	emb := reloaded.Embeddings()
	if !emb.Equal(model.Embeddings(), 0) {
		t.Fatal("reloaded model's embeddings differ from the trained model's")
	}

	// Classification beats chance (7 topics → chance ≈ 0.14).
	rng := rand.New(rand.NewSource(9))
	macro, micro, err := eval.NodeClassification(emb, g2, 0.9, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if micro < 0.3 {
		t.Fatalf("end-to-end micro-F1 %.3f barely above chance", micro)
	}
	if macro <= 0 || macro > 1 {
		t.Fatalf("macro-F1 out of range: %v", macro)
	}

	// Link prediction beats chance on a fresh split.
	sub, pos, neg, err := eval.LinkPredictionSplit(g2, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	model2, err := transn.Train(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auc := eval.LinkPredictionAUC(model2.Embeddings(), pos, neg); auc < 0.4 {
		t.Fatalf("end-to-end AUC %.3f below chance band", auc)
	}
}
