package skipgram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"transn/internal/rngstream"
)

// The pair kernel reuses one grad buffer per shard and takes the pair
// loss as −log ∏pᵢ. The tests below pin it against the per-update-log,
// per-pair-allocation kernel it replaced, kept here as the reference:
// every In/Out value must match bit for bit, and the mean loss to 1e-12
// relative.

// referencePairUpdate is the replaced hogwildPairUpdate: it returns the
// update's own clamped log loss.
func referencePairUpdate(in, out, grad []float64, label, lr float64) float64 {
	var dot float64
	for i := range in {
		dot += in[i] * out[i]
	}
	score := sigmoid(dot)
	g := (score - label) * lr
	var loss float64
	if label == 1 {
		loss = -math.Log(math.Max(score, 1e-10))
	} else {
		loss = -math.Log(math.Max(1-score, 1e-10))
	}
	for i := range in {
		grad[i] += g * out[i]
		out[i] -= g * in[i]
	}
	return loss
}

// referenceTrainPair is the replaced TrainPair: a fresh grad slice per
// pair and the sum of per-update losses.
func referenceTrainPair(m *Model, center, context, neg int, lr float64, s *NegSampler, rng *rand.Rand) float64 {
	in := m.In.Row(center)
	grad := make([]float64, len(in))
	loss := referencePairUpdate(in, m.Out.Row(context), grad, 1, lr)
	for k := 0; k < neg; k++ {
		n := s.Draw(rng)
		for tries := 0; n == context && tries < 4; tries++ {
			n = s.Draw(rng)
		}
		if n == context {
			continue
		}
		loss += referencePairUpdate(in, m.Out.Row(n), grad, 0, lr)
	}
	for i := range in {
		in[i] -= grad[i]
	}
	return loss
}

func referenceTrainCorpus(m *Model, paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) (float64, int) {
	var loss float64
	var pairs int
	for _, p := range paths {
		for k, center := range p {
			for _, d := range offsets {
				j := k + d
				if j < 0 || j >= len(p) || p[j] == center {
					continue
				}
				loss += referenceTrainPair(m, center, p[j], neg, lr, s, rng)
				pairs++
			}
		}
	}
	return loss, pairs
}

// referenceDeterministic mirrors TrainCorpusParallelStats with
// deterministic=true: the same contiguous shards and per-shard streams,
// applied in shard order.
func referenceDeterministic(m *Model, paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, seed int64, workers int) (float64, int) {
	shards := workers
	if shards > len(paths) {
		shards = len(paths)
	}
	if shards < 1 {
		shards = 1
	}
	var loss float64
	var pairs int
	for sh := 0; sh < shards; sh++ {
		lo := sh * len(paths) / shards
		hi := (sh + 1) * len(paths) / shards
		l, n := referenceTrainCorpus(m, paths[lo:hi], offsets, neg, lr, s, rngstream.New(seed, int64(sh)))
		loss += l
		pairs += n
	}
	if pairs == 0 {
		return 0, 0
	}
	return loss / float64(pairs), pairs
}

// revisitCorpus draws random walks over n nodes that often revisit a
// node, so the self-pair skip is exercised alongside ordinary pairs.
func revisitCorpus(rng *rand.Rand, n, walks, length int) [][]int {
	paths := make([][]int, walks)
	for i := range paths {
		p := make([]int, length)
		p[0] = rng.Intn(n)
		for j := 1; j < length; j++ {
			if rng.Intn(4) == 0 {
				p[j] = p[j-1]
			} else {
				p[j] = rng.Intn(n)
			}
		}
		paths[i] = p
	}
	return paths
}

func assertTablesIdentical(t *testing.T, what string, got, want *Model) {
	t.Helper()
	for i := range want.In.Data {
		if math.Float64bits(got.In.Data[i]) != math.Float64bits(want.In.Data[i]) {
			t.Fatalf("%s: In[%d] = %v, reference %v", what, i, got.In.Data[i], want.In.Data[i])
		}
	}
	for i := range want.Out.Data {
		if math.Float64bits(got.Out.Data[i]) != math.Float64bits(want.Out.Data[i]) {
			t.Fatalf("%s: Out[%d] = %v, reference %v", what, i, got.Out.Data[i], want.Out.Data[i])
		}
	}
}

func assertLossClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("%s: mean loss %v, reference %v (rel diff %g)", what, got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// TestPairKernelMatchesReference trains several passes with homo (±1)
// and hetero (±2) offsets, serially and through the deterministic
// sharded path with two workers, and compares each pass against the
// reference kernel on a cloned model.
func TestPairKernelMatchesReference(t *testing.T) {
	const nodes, dim = 24, 16
	paths := revisitCorpus(rand.New(rand.NewSource(21)), nodes, 60, 12)
	s := NewNegSampler(CorpusFrequencies(paths, nodes))
	for _, hetero := range []bool{false, true} {
		offsets := ContextOffsets(hetero)
		for _, neg := range []int{5, 40} {
			name := func(mode string) string {
				return fmt.Sprintf("hetero=%v/%s/neg=%d", hetero, mode, neg)
			}

			// Serial TrainCorpus against the reference loop on one stream.
			got := NewModel(nodes, dim, rand.New(rand.NewSource(22)))
			want := cloneModel(got)
			gotRNG, wantRNG := rand.New(rand.NewSource(23)), rand.New(rand.NewSource(23))
			for pass := 0; pass < 3; pass++ {
				lr := 0.05 * (1 - float64(pass)/3)
				gl := got.TrainCorpus(paths, offsets, neg, lr, s, gotRNG)
				wl, wp := referenceTrainCorpus(want, paths, offsets, neg, lr, s, wantRNG)
				assertLossClose(t, name("serial"), gl, wl/float64(wp))
				assertTablesIdentical(t, name("serial"), got, want)
			}

			// Deterministic sharded apply, workers=2.
			got = NewModel(nodes, dim, rand.New(rand.NewSource(24)))
			want = cloneModel(got)
			for pass := 0; pass < 3; pass++ {
				lr := 0.05 * (1 - float64(pass)/3)
				seed := int64(100 + pass)
				gl, gp, _ := got.TrainCorpusParallelStats(paths, offsets, neg, lr, s, seed, 2, true)
				wl, wp := referenceDeterministic(want, paths, offsets, neg, lr, s, seed, 2)
				if gp != wp {
					t.Fatalf("%s: %d pairs, reference %d", name("workers=2"), gp, wp)
				}
				assertLossClose(t, name("workers=2"), gl, wl)
				assertTablesIdentical(t, name("workers=2"), got, want)
			}
		}
	}
}

// saturatedModel returns a model whose every update is clamped at
// p = 1e-10: the positive context's output row points away from the
// center and every other output row points along it. The sampler gives
// the context a vanishing weight, so all neg negatives are other nodes.
func saturatedModel() (*Model, *NegSampler) {
	const nodes, dim = 6, 8
	m := NewModel(nodes, dim, rand.New(rand.NewSource(31)))
	for i := range m.In.Data {
		m.In.Data[i] = 10
	}
	for n := 0; n < nodes; n++ {
		v := 10.0
		if n == 1 {
			v = -10
		}
		row := m.Out.Row(n)
		for i := range row {
			row[i] = v
		}
	}
	return m, NewNegSampler([]float64{1e6, 0, 1e6, 1e6, 1e6, 1e6})
}

// With neg=64 and every score saturated, the running product of 65
// clamped probabilities (1e-650) would underflow to zero without the
// early fold, and the loss would read +Inf.
func TestPairKernelSaturatedManyNegatives(t *testing.T) {
	const neg = 64
	got, s := saturatedModel()
	want := cloneModel(got)
	gl := got.TrainPair(0, 1, neg, 1e-6, s, rand.New(rand.NewSource(32)))
	wl := referenceTrainPair(want, 0, 1, neg, 1e-6, s, rand.New(rand.NewSource(32)))
	if math.IsInf(gl, 0) || math.IsNaN(gl) {
		t.Fatalf("saturated loss = %v, want finite", gl)
	}
	clamped := float64(neg+1) * -math.Log(1e-10)
	if math.Abs(wl-clamped) > 1e-12*clamped {
		t.Fatalf("reference loss %v, expected %d clamped updates = %v", wl, neg+1, clamped)
	}
	assertLossClose(t, "saturated neg=64", gl, wl)
	assertTablesIdentical(t, "saturated neg=64", got, want)
}

// A NaN anywhere in the update must still surface as a NaN loss, so the
// trainer's finite guard trips: a NaN center row through a corpus pass,
// and NaN negative rows in a saturated 64-negative pair, where the
// product is being folded into the loss.
func TestPairKernelNaNPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	paths := twoClusterCorpus(rng, 10, 8)
	m := NewModel(6, 8, rng)
	m.In.Row(2)[3] = math.NaN()
	s := NewNegSampler(CorpusFrequencies(paths, 6))
	if loss := m.TrainCorpus(paths, SymmetricOffsets(1), 5, 0.05, s, rng); !math.IsNaN(loss) {
		t.Fatalf("pass over a NaN row: loss %v, want NaN", loss)
	}

	sat, ss := saturatedModel()
	for n := 2; n < 6; n++ {
		sat.Out.Row(n)[0] = math.NaN()
	}
	if loss := sat.TrainPair(0, 1, 64, 1e-6, ss, rand.New(rand.NewSource(34))); !math.IsNaN(loss) {
		t.Fatalf("saturated pair with NaN negative rows: loss %v, want NaN", loss)
	}
}

// TestTrainCorpusAllocsConstant pins the pass's allocation count: the
// shard's one grad buffer, independent of how many pairs it trains.
func TestTrainCorpusAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	small := twoClusterCorpus(rng, 5, 10)
	large := twoClusterCorpus(rng, 50, 40)
	m := NewModel(6, 64, rng)
	s := NewNegSampler(CorpusFrequencies(large, 6))
	offsets := SymmetricOffsets(2)
	allocs := func(paths [][]int) float64 {
		return testing.AllocsPerRun(5, func() {
			m.TrainCorpus(paths, offsets, 5, 0.025, s, rng)
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b || b > 1 {
		t.Fatalf("TrainCorpus allocates %v objects on %d paths and %v on %d, want the same constant ≤ 1",
			a, len(small), b, len(large))
	}
}
