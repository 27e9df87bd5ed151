package transn

// Determinism regression suite for the sharded worker-pool pipeline.
//
// The reproducibility contract (Config.Seed / Config.Workers): training
// is byte-reproducible for any fixed (Seed, Workers). Views train
// concurrently, but each owns its tables and RNG streams; walk shards
// run concurrently, but their outputs are combined in shard order;
// skip-gram shards and cross-view pair steps apply in a fixed order.
// Different worker counts partition the skip-gram pass differently, so
// they give different (equally valid) embeddings. golden_test.go pins
// one run's embeddings across changes to the code.

import (
	"math"
	"testing"
)

// trainEmb trains and returns embeddings, failing the test on error.
func trainEmb(t *testing.T, cfg Config, seed int64) ([]float64, *Model) {
	t.Helper()
	g := socialGraph(t, 10, 5, seed)
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Embeddings().Data, m
}

func TestDeterministicShardedApplyReproducible(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := quickCfg()
		cfg.Workers = workers
		a, _ := trainEmb(t, cfg, 22)
		b, _ := trainEmb(t, cfg, 22)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Workers=%d training not reproducible at element %d: %v vs %v",
					workers, i, a[i], b[i])
			}
		}
	}
}

func TestDeterministicModeStillSeedSensitive(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 2
	cfg.Seed = 5
	a, _ := trainEmb(t, cfg, 23)
	cfg.Seed = 6
	b, _ := trainEmb(t, cfg, 23)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

// TestConcurrentTrainingLearns trains with four workers, so the views
// and the walk shards run concurrently, and checks that training
// completes with finite embeddings and a falling loss.
func TestConcurrentTrainingLearns(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 4
	cfg.Iterations = 4
	emb, m := trainEmb(t, cfg, 24)
	for i, v := range emb {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite embedding element %d: %v", i, v)
		}
	}
	first := m.History[0].SingleLoss
	last := m.History[len(m.History)-1].SingleLoss
	if !(last < first) {
		t.Fatalf("loss did not decrease: %.4f → %.4f", first, last)
	}
}

// TestViewInitStreamsIndependent regression-tests the rand.Rand sharing
// hazard fixed in this refactor: every view's embedding table must come
// from its own derived stream, so view initializations are mutually
// independent and do not depend on iteration order or worker count.
func TestViewInitStreamsIndependent(t *testing.T) {
	g := socialGraph(t, 8, 4, 25)
	cfg := quickCfg().withDefaults()
	m1 := &Model{Cfg: cfg, Graph: g, views: g.Views()}
	m1.initViews()
	m2 := &Model{Cfg: cfg, Graph: g, views: g.Views()}
	m2.initViews()
	if len(m1.emb) < 2 || m1.emb[0] == nil || m1.emb[1] == nil {
		t.Fatal("expected two non-empty views")
	}
	// Reproducible per view.
	for vi := range m1.emb {
		if m1.emb[vi] == nil {
			continue
		}
		for i, v := range m1.emb[vi].In.Data {
			if m2.emb[vi].In.Data[i] != v {
				t.Fatalf("view %d init not reproducible", vi)
			}
		}
	}
	// Streams differ between views: the (equal-size) prefixes of the two
	// tables must not coincide.
	n := len(m1.emb[0].In.Data)
	if n2 := len(m1.emb[1].In.Data); n2 < n {
		n = n2
	}
	same := 0
	for i := 0; i < n; i++ {
		if m1.emb[0].In.Data[i] == m1.emb[1].In.Data[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("views 0 and 1 were initialized from the same stream")
	}
}
