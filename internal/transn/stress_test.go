package transn

// Concurrency stress suite: drives the full Algorithm 1 pipeline with
// many more workers than this graph needs, so `go test -race
// ./internal/transn` exercises every fan-out point (concurrent views,
// walk shards) under the race detector. No code is exempt from the
// detector, so a pass here means the pipeline has no data races.

import (
	"math"
	"testing"
)

func stressCfg() Config {
	cfg := quickCfg()
	cfg.Workers = 8
	cfg.Iterations = 5
	return cfg
}

// checkStressInvariants asserts finite loss history, loss that is
// non-increasing on average, and finite embeddings for every node.
func checkStressInvariants(t *testing.T, m *Model) {
	t.Helper()
	if len(m.History) != m.Cfg.Iterations {
		t.Fatalf("history length %d want %d", len(m.History), m.Cfg.Iterations)
	}
	for _, st := range m.History {
		if math.IsNaN(st.SingleLoss) || math.IsInf(st.SingleLoss, 0) {
			t.Fatalf("non-finite single loss at iter %d: %v", st.Iteration, st.SingleLoss)
		}
		if math.IsNaN(st.CrossLoss) || math.IsInf(st.CrossLoss, 0) {
			t.Fatalf("non-finite cross loss at iter %d: %v", st.Iteration, st.CrossLoss)
		}
	}
	// Non-increasing on average: the mean single-view loss of the second
	// half must not exceed the first half's (individual iterations may
	// wobble).
	half := len(m.History) / 2
	var first, second float64
	for i, st := range m.History {
		if i < half {
			first += st.SingleLoss
		} else {
			second += st.SingleLoss
		}
	}
	first /= float64(half)
	second /= float64(len(m.History) - half)
	if second > first {
		t.Fatalf("mean single loss increased: %.4f → %.4f", first, second)
	}
	emb := m.Embeddings()
	for r := 0; r < emb.R; r++ {
		for _, v := range emb.Row(r) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite embedding row %d", r)
			}
		}
	}
}

// TestStressHogwildWorkers8 trains with DeterministicApply left false,
// the setting that once selected the removed Hogwild mode. It must pass
// the stress invariants and give the same embeddings as a run that sets
// the flag, since training now has one mode.
func TestStressHogwildWorkers8(t *testing.T) {
	g := socialGraph(t, 16, 8, 41)
	cfg := stressCfg()
	cfg.DeterministicApply = false
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStressInvariants(t, m)
	cfg.DeterministicApply = true
	ref, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Embeddings().Data, ref.Embeddings().Data
	if len(got) != len(want) {
		t.Fatalf("embedding size %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("embedding value %d differs with DeterministicApply unset: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestStressDeterministicWorkers8(t *testing.T) {
	g := socialGraph(t, 16, 8, 42)
	cfg := stressCfg()
	cfg.DeterministicApply = true
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStressInvariants(t, m)
}

// TestStressAblationsUnderPool makes sure every ablation path survives
// the pooled pipeline (the SimpleWalk corpus stays serial but its
// training pass shards; NoCrossView skips the pair fan-out entirely).
func TestStressAblationsUnderPool(t *testing.T) {
	g := socialGraph(t, 10, 5, 43)
	for name, mutate := range map[string]func(*Config){
		"NoCrossView": func(c *Config) { c.NoCrossView = true },
		"SimpleWalk":  func(c *Config) { c.SimpleWalk = true },
	} {
		cfg := stressCfg()
		cfg.Iterations = 2
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
