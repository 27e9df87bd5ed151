package skipgram

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/mat"
	"transn/internal/rngstream"
)

func TestContextOffsets(t *testing.T) {
	homo := ContextOffsets(false)
	if len(homo) != 2 || homo[0] != -1 || homo[1] != 1 {
		t.Fatalf("homo offsets = %v", homo)
	}
	heter := ContextOffsets(true)
	want := []int{-2, -1, 1, 2}
	if len(heter) != 4 {
		t.Fatalf("heter offsets = %v", heter)
	}
	for i := range want {
		if heter[i] != want[i] {
			t.Fatalf("heter offsets = %v", heter)
		}
	}
}

func TestSymmetricOffsets(t *testing.T) {
	got := SymmetricOffsets(3)
	want := []int{-3, -2, -1, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("offsets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets = %v", got)
		}
	}
}

func TestCorpusFrequencies(t *testing.T) {
	paths := [][]int{{0, 1, 2}, {1, 2, 2}}
	f := CorpusFrequencies(paths, 4)
	want := []float64{1, 2, 3, 0}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("freq = %v", f)
		}
	}
}

func TestNegSamplerSmoothing(t *testing.T) {
	// freq^0.75 smoothing: outcome 0 (freq 16) vs outcome 1 (freq 1)
	// should be drawn in ratio 16^0.75 : 1 = 8 : 1.
	s := NewNegSampler([]float64{16, 1})
	r := rngstream.NewSplitMix64(1)
	count0 := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Draw(&r) == 0 {
			count0++
		}
	}
	want := 8.0 / 9.0
	if got := float64(count0) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("P(0) = %.4f want %.4f", got, want)
	}
}

func TestNegSamplerZeroFreqFloor(t *testing.T) {
	s := NewNegSampler([]float64{0, 1})
	r := rngstream.NewSplitMix64(2)
	saw0 := false
	for i := 0; i < 10000; i++ {
		if s.Draw(&r) == 0 {
			saw0 = true
			break
		}
	}
	if !saw0 {
		t.Fatal("zero-frequency outcome should still be drawable")
	}
}

// twoClusterCorpus builds walks over two disjoint cliques {0,1,2} and
// {3,4,5}: co-occurring nodes should end up with similar embeddings.
func twoClusterCorpus(rng *rand.Rand, walks, length int) [][]int {
	var paths [][]int
	for c := 0; c < 2; c++ {
		base := c * 3
		for i := 0; i < walks; i++ {
			p := make([]int, length)
			for j := range p {
				p[j] = base + rng.Intn(3)
			}
			paths = append(paths, p)
		}
	}
	return paths
}

func TestSGNSSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	paths := twoClusterCorpus(rng, 60, 12)
	m := NewModel(6, 16, rng)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	var last float64
	for epoch := 0; epoch < 8; epoch++ {
		lr := 0.05 * (1 - float64(epoch)/8)
		last = m.TrainCorpus(paths, SymmetricOffsets(2), 5, lr, s, rng)
	}
	if math.IsNaN(last) || last <= 0 {
		t.Fatalf("bad final loss %v", last)
	}
	intra := mat.CosineSim(m.In.Row(0), m.In.Row(1))
	inter := mat.CosineSim(m.In.Row(0), m.In.Row(4))
	if intra <= inter {
		t.Fatalf("intra-cluster sim %.4f should exceed inter-cluster %.4f", intra, inter)
	}
}

func TestTrainCorpusLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	paths := twoClusterCorpus(rng, 40, 10)
	m := NewModel(6, 8, rng)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	first := m.TrainCorpus(paths, SymmetricOffsets(1), 5, 0.05, s, rng)
	var last float64
	for i := 0; i < 10; i++ {
		last = m.TrainCorpus(paths, SymmetricOffsets(1), 5, 0.05, s, rng)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f last %.4f", first, last)
	}
}

func TestTrainCorpusEmptyPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel(2, 4, rng)
	s := NewNegSampler([]float64{1, 1})
	if got := m.TrainCorpus(nil, SymmetricOffsets(1), 2, 0.1, s, rng); got != 0 {
		t.Fatalf("empty corpus loss = %v", got)
	}
}

func TestModelDim(t *testing.T) {
	m := NewModel(3, 7, rand.New(rand.NewSource(10)))
	if m.Dim() != 7 {
		t.Fatalf("Dim = %d", m.Dim())
	}
	if m.In.R != 3 || m.Out.R != 3 {
		t.Fatal("wrong table shapes")
	}
	if m.Out.MaxAbs() != 0 {
		t.Fatal("Out must start at zero")
	}
}

// BenchmarkSGNSPass times one serial SGNS pass at d=64 with five
// negatives. pairs/s is the (center, context) pair throughput, a kernel
// denominator that does not depend on corpus size or the end-to-end
// workload. On the 6-node corpus most pairs draw a repeated negative,
// so their batches split into several segments; on the 1,000-node
// corpus few do, as on the real graphs. Every pass starts from the same
// freshly initialised model, reset outside the timer, so the passes
// time first-pass scores, not a model that has saturated over b.N
// passes.
func BenchmarkSGNSPass(b *testing.B) {
	for _, c := range []struct {
		name  string
		nodes int
		paths func(rng *rand.Rand) [][]int
	}{
		{"nodes=6", 6, func(rng *rand.Rand) [][]int { return twoClusterCorpus(rng, 50, 40) }},
		{"nodes=1000", 1000, func(rng *rand.Rand) [][]int { return revisitCorpus(rng, 1000, 100, 40) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			paths := c.paths(rng)
			fresh := NewModel(c.nodes, 64, rng)
			m := cloneModel(fresh)
			s := NewNegSampler(CorpusFrequencies(paths, c.nodes))
			b.ReportAllocs()
			b.ResetTimer()
			var pairs int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(m.In.Data, fresh.In.Data)
				copy(m.Out.Data, fresh.Out.Data)
				b.StartTimer()
				_, n := m.trainCorpus(paths, SymmetricOffsets(2), 5, 0.025, s, rng)
				pairs += n
			}
			b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

func TestTrainCorpusSkipsSelfPairs(t *testing.T) {
	// A path that revisits the same node must not generate center==context
	// updates (they carry no proximity information and inflate norms).
	rng := rand.New(rand.NewSource(11))
	m := NewModel(2, 4, rng)
	s := NewNegSampler([]float64{1, 1})
	// Path of all-identical nodes: every in-window pair is a self-pair.
	loss := m.TrainCorpus([][]int{{0, 0, 0, 0}}, SymmetricOffsets(1), 2, 0.1, s, rng)
	if loss != 0 {
		t.Fatalf("self-pair corpus should produce zero pairs, got loss %v", loss)
	}
}

// cloneModel deep-copies a model so two training disciplines can start
// from identical weights.
func cloneModel(m *Model) *Model {
	c := NewModel(m.In.R, m.In.C, rand.New(rand.NewSource(0)))
	copy(c.In.Data, m.In.Data)
	copy(c.Out.Data, m.Out.Data)
	return c
}

// TrainCorpusParallelStats with one worker must reduce to TrainCorpus
// under the shard-0 stream — this anchors the Workers=1 reproducibility
// promise all the way down the stack.
func TestTrainCorpusParallelOneWorkerMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	paths := twoClusterCorpus(rng, 30, 10)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	a := NewModel(6, 8, rand.New(rand.NewSource(7)))
	b := cloneModel(a)
	const seed = 99
	la, _, _ := a.TrainCorpusParallelStats(paths, SymmetricOffsets(2), 5, 0.05, s, seed, 1)
	lb := b.TrainCorpus(paths, SymmetricOffsets(2), 5, 0.05, s, rngstream.New(seed, 0))
	if la != lb {
		t.Fatalf("losses differ: %v vs %v", la, lb)
	}
	for i := range a.In.Data {
		if a.In.Data[i] != b.In.Data[i] {
			t.Fatalf("In tables diverge at %d", i)
		}
	}
	for i := range a.Out.Data {
		if a.Out.Data[i] != b.Out.Data[i] {
			t.Fatalf("Out tables diverge at %d", i)
		}
	}
}

// The sharded pass must be byte-reproducible per (seed, workers).
func TestTrainCorpusParallelDeterministicReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	paths := twoClusterCorpus(rng, 30, 10)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	for _, workers := range []int{2, 4} {
		a := NewModel(6, 8, rand.New(rand.NewSource(9)))
		b := cloneModel(a)
		la, _, _ := a.TrainCorpusParallelStats(paths, SymmetricOffsets(2), 5, 0.05, s, 11, workers)
		lb, _, _ := b.TrainCorpusParallelStats(paths, SymmetricOffsets(2), 5, 0.05, s, 11, workers)
		if la != lb {
			t.Fatalf("workers=%d losses differ: %v vs %v", workers, la, lb)
		}
		for i := range a.In.Data {
			if a.In.Data[i] != b.In.Data[i] {
				t.Fatalf("workers=%d In tables diverge at %d", workers, i)
			}
		}
	}
}

// Repeated four-shard passes must learn: the loss falls and stays
// finite.
func TestTrainCorpusParallelLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	paths := twoClusterCorpus(rng, 40, 10)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	m := NewModel(6, 8, rand.New(rand.NewSource(11)))
	first, _, _ := m.TrainCorpusParallelStats(paths, SymmetricOffsets(1), 5, 0.05, s, 12, 4)
	var last float64
	for i := 1; i < 10; i++ {
		last, _, _ = m.TrainCorpusParallelStats(paths, SymmetricOffsets(1), 5, 0.05, s, 12+int64(i), 4)
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("loss did not decrease: first %.4f last %.4f", first, last)
	}
}

// TrainCorpusParallelStats must train exactly like TrainCorpus applied
// to each shard of its partition in shard order, each under its own
// stream (same summed loss and pair count, same tables), while
// reporting a worker-time breakdown covering every shard.
func TestTrainCorpusParallelStatsMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	paths := twoClusterCorpus(rng, 30, 10)
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	for _, workers := range []int{1, 3} {
		a := NewModel(6, 8, rand.New(rand.NewSource(15)))
		b := cloneModel(a)
		var sum float64
		var want int
		for sh := 0; sh < workers; sh++ {
			lo, hi := sh*len(paths)/workers, (sh+1)*len(paths)/workers
			l, n := a.trainCorpus(paths[lo:hi], SymmetricOffsets(2), 5, 0.05, s, rngstream.New(13, int64(sh)))
			sum += l
			want += n
		}
		lb, pairs, st := b.TrainCorpusParallelStats(paths, SymmetricOffsets(2), 5, 0.05, s, 13, workers)
		if la := sum / float64(want); la != lb || pairs != want {
			t.Fatalf("workers=%d: loss %v over %d pairs, want %v over %d", workers, lb, pairs, la, want)
		}
		for i := range a.In.Data {
			if a.In.Data[i] != b.In.Data[i] {
				t.Fatalf("workers=%d: In tables diverge at %d", workers, i)
			}
		}
		if pairs <= 0 {
			t.Fatalf("workers=%d: pair count %d not positive", workers, pairs)
		}
		if st.Wall <= 0 || len(st.Workers) == 0 {
			t.Fatalf("workers=%d: empty stats %+v", workers, st)
		}
		shards := 0
		for _, w := range st.Workers {
			shards += w.Shards
		}
		if shards != workers {
			t.Fatalf("workers=%d: %d shards attributed in %+v", workers, shards, st)
		}
	}
}
