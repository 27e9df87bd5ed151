package skipgram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"transn/internal/mat"
	"transn/internal/rngstream"
)

// The pair kernel reuses one grad buffer per shard, keeps the shard's
// loss as loss − log ∏pᵢ over all its pairs, scores through the mat
// kernels and the interpolated sigmoid table, and updates through them.
// The tests below pin it two ways. Against sequentialTrainPair, the
// one-row-at-a-time kernel (a Dot, then two Axpy calls, per row,
// drawing each negative from the same stream just before its update,
// and folding each probability into the same running product), it must
// match bit for bit: tables, loss and stream state. Against the
// per-update-log, per-pair-allocation kernel with a left-to-right dot
// and the exact sigmoid, kept here as the reference, the update half
// must match bit for bit for the same step g; the score may differ by
// the table's interpolation error, and the loss by the rounding of the
// folded logs, so whole passes are compared within a tolerance.

// sequentialTrainPair is the one-row-at-a-time pair step: each negative
// is drawn from b.negs, scored and applied before the next is drawn, and
// each clamped probability multiplies into b.prod, which folds into
// b.loss below foldBelow. It uses b's grad buffer, which it clears, and
// none of b's batch rows.
func sequentialTrainPair(m *Model, center, context, neg int, lr float64, s *NegSampler, b *pairBatch) {
	in := m.In.Row(center)
	clear(b.grad)
	fold := func(p float64) {
		b.prod *= p
		if b.prod < foldBelow {
			b.loss -= math.Log(b.prod)
			b.prod = 1
		}
	}
	fold(pairUpdate(in, m.Out.Row(context), b.grad, 1, lr))
	for k := 0; k < neg; k++ {
		n := s.Draw(&b.negs)
		for tries := 0; n == context && tries < 4; tries++ {
			n = s.Draw(&b.negs)
		}
		if n == context {
			continue
		}
		fold(pairUpdate(in, m.Out.Row(n), b.grad, 0, lr))
	}
	applyRowGrad(in, b.grad)
}

// pairUpdate is sequentialTrainPair's step for one row: it scores the
// (center, target) pair against label, accumulates the center gradient
// into grad, then moves the target row, and returns the clamped
// probability the model gives the label.
func pairUpdate(in, out, grad []float64, label, lr float64) float64 {
	score := tableSigmoid(mat.Dot(in, out))
	g := (score - label) * lr
	mat.Axpy(g, out, grad)
	mat.Axpy(-g, in, out)
	p := score
	if label != 1 {
		p = 1 - score
	}
	if p < 1e-10 {
		p = 1e-10
	}
	return p
}

// sequentialTrainCorpus is trainCorpus over sequentialTrainPair.
func sequentialTrainCorpus(m *Model, paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) (float64, int) {
	b := newPairBatch(m.In.C, rng)
	var pairs int
	for _, p := range paths {
		for k, center := range p {
			for _, d := range offsets {
				j := k + d
				if j < 0 || j >= len(p) || p[j] == center {
					continue
				}
				sequentialTrainPair(m, center, p[j], neg, lr, s, &b)
				pairs++
			}
		}
	}
	return b.total(), pairs
}

// TestPairBatchMatchesSequential requires the batched pair step to give
// sequentialTrainPair's bits: In and Out tables, the pass loss and the
// rng state, after three passes, serially and through
// TrainCorpusParallelStats with two workers. The 6-node corpus makes
// most pairs repeat a negative, so segments split often; on the
// 1,000-node corpus few do. The negative counts cover no negatives, one,
// the default five, and more than one batch holds (40, 64); the widths
// cover every tail length of the four-wide blocks.
func TestPairBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	corpora := []struct {
		name   string
		nodes  int
		paths  [][]int
		hetero bool
	}{
		{"6-node", 6, twoClusterCorpus(rng, 20, 10), true},
		{"1000-node", 1000, revisitCorpus(rng, 1000, 60, 16), false},
	}
	for _, c := range corpora {
		s := NewNegSampler(CorpusFrequencies(c.paths, c.nodes))
		offsets := ContextOffsets(c.hetero)
		for _, neg := range []int{0, 1, 5, 40, 64} {
			for _, dim := range []int{1, 3, 4, 5, 64, 67} {
				name := fmt.Sprintf("%s/neg=%d/d=%d", c.name, neg, dim)

				got := NewModel(c.nodes, dim, rand.New(rand.NewSource(26)))
				randomizeOut(got, rand.New(rand.NewSource(27)))
				want := cloneModel(got)
				gotRNG, wantRNG := rand.New(rand.NewSource(28)), rand.New(rand.NewSource(28))
				for pass := 0; pass < 3; pass++ {
					lr := 0.05 * (1 - float64(pass)/3)
					gl, gp := got.trainCorpus(c.paths, offsets, neg, lr, s, gotRNG)
					wl, wp := sequentialTrainCorpus(want, c.paths, offsets, neg, lr, s, wantRNG)
					assertSameRun(t, name+"/serial", gl, wl, gp, wp)
					assertTablesIdentical(t, name+"/serial", got, want)
				}
				if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
					t.Fatalf("%s: rng state differs after three passes: next Int63 %d, sequential %d", name, g, w)
				}

				got = NewModel(c.nodes, dim, rand.New(rand.NewSource(29)))
				randomizeOut(got, rand.New(rand.NewSource(30)))
				want = cloneModel(got)
				for pass := 0; pass < 3; pass++ {
					lr := 0.05 * (1 - float64(pass)/3)
					seed := int64(200 + pass)
					gl, gp, _ := got.TrainCorpusParallelStats(c.paths, offsets, neg, lr, s, seed, 2)
					var wl float64
					var wp int
					for sh := 0; sh < 2; sh++ {
						lo, hi := sh*len(c.paths)/2, (sh+1)*len(c.paths)/2
						l, n := sequentialTrainCorpus(want, c.paths[lo:hi], offsets, neg, lr, s, rngstream.New(seed, int64(sh)))
						wl += l
						wp += n
					}
					assertSameRun(t, name+"/workers=2", gl, wl/float64(wp), gp, wp)
					assertTablesIdentical(t, name+"/workers=2", got, want)
				}
			}
		}
	}
}

// randomizeOut gives the context table small random values, so the
// first pass's scores are not all σ(0) and the updates differ per row.
func randomizeOut(m *Model, rng *rand.Rand) {
	for i := range m.Out.Data {
		m.Out.Data[i] = 0.2 * rng.NormFloat64()
	}
}

func assertSameRun(t *testing.T, what string, gotLoss, wantLoss float64, gotPairs, wantPairs int) {
	t.Helper()
	if gotPairs != wantPairs {
		t.Fatalf("%s: %d pairs, sequential %d", what, gotPairs, wantPairs)
	}
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: loss %v (%#x), sequential %v (%#x)", what, gotLoss, math.Float64bits(gotLoss),
			wantLoss, math.Float64bits(wantLoss))
	}
}

// TestPairBatchSplitsAtRepeats checks the segment rule directly: the
// first sampler draws (nearly) only nodes 0 and 2, so nearly every pair
// of more than two negatives repeats a row, and a repeated row must be
// scored after its earlier update, as the sequential step does. The
// second draws nodes 0, 64 and 128, which share row&63, so the split's
// mask always calls the scan, which must split only at true repeats.
// The counts around maxRows−1 also split batches at the capacity. Both
// sides train 20 pairs through one batch, so the loss also carries
// across pairs.
func TestPairBatchSplitsAtRepeats(t *testing.T) {
	collide := make([]float64, 130)
	collide[0], collide[64], collide[128] = 1, 1, 1
	for _, c := range []struct {
		name            string
		freq            []float64
		center, context int
	}{
		{"two nodes", []float64{1, 0, 1, 0}, 3, 1},
		{"mod-64 collisions", collide, 129, 1},
	} {
		s := NewNegSampler(c.freq)
		nodes := len(c.freq)
		for _, neg := range []int{2, 3, 15, 16, 17} {
			what := fmt.Sprintf("%s neg=%d", c.name, neg)
			got := NewModel(nodes, 5, rand.New(rand.NewSource(36)))
			randomizeOut(got, rand.New(rand.NewSource(37)))
			want := cloneModel(got)
			gb := newPairBatch(5, rand.New(rand.NewSource(38)))
			wb := newPairBatch(5, rand.New(rand.NewSource(38)))
			for k := 0; k < 20; k++ {
				got.trainPair(c.center, c.context, neg, 0.5, s, &gb)
				sequentialTrainPair(want, c.center, c.context, neg, 0.5, s, &wb)
				assertSameRun(t, fmt.Sprintf("%s pair %d", what, k), gb.total(), wb.total(), 1, 1)
			}
			assertTablesIdentical(t, what, got, want)
			if g, w := gb.negs.Uint64(), wb.negs.Uint64(); g != w {
				t.Fatalf("%s: negative stream differs: next word %#x, sequential %#x", what, g, w)
			}
		}
	}
}

// referenceScore is the reference kernel's score: a single-accumulator
// dot through the exact sigmoid.
func referenceScore(in, out []float64) float64 {
	var dot float64
	for i := range in {
		dot += in[i] * out[i]
	}
	return sigmoid(dot)
}

// referenceUpdate is the reference kernel's update half for step g.
func referenceUpdate(in, out, grad []float64, g float64) {
	for i := range in {
		grad[i] += g * out[i]
		out[i] -= g * in[i]
	}
}

// referencePairUpdate is the replaced pair update: it returns the
// update's own clamped log loss.
func referencePairUpdate(in, out, grad []float64, label, lr float64) float64 {
	score := referenceScore(in, out)
	g := (score - label) * lr
	var loss float64
	if label == 1 {
		loss = -math.Log(math.Max(score, 1e-10))
	} else {
		loss = -math.Log(math.Max(1-score, 1e-10))
	}
	referenceUpdate(in, out, grad, g)
	return loss
}

// referenceTrainPair is the replaced TrainPair: a fresh grad slice per
// pair and the sum of per-update losses, which it returns. It draws its
// negatives from negs.
func referenceTrainPair(m *Model, center, context, neg int, lr float64, s *NegSampler, negs *rngstream.SplitMix64) float64 {
	in := m.In.Row(center)
	grad := make([]float64, len(in))
	loss := referencePairUpdate(in, m.Out.Row(context), grad, 1, lr)
	for k := 0; k < neg; k++ {
		n := s.Draw(negs)
		for tries := 0; n == context && tries < 4; tries++ {
			n = s.Draw(negs)
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

// referenceTrainCorpus seeds its negative stream as trainCorpus does.
func referenceTrainCorpus(m *Model, paths [][]int, offsets []int, neg int, lr float64, s *NegSampler, rng *rand.Rand) (float64, int) {
	negs := rngstream.NewSplitMix64(rng.Uint64())
	var loss float64
	var pairs int
	for _, p := range paths {
		for k, center := range p {
			for _, d := range offsets {
				j := k + d
				if j < 0 || j >= len(p) || p[j] == center {
					continue
				}
				loss += referenceTrainPair(m, center, p[j], neg, lr, s, &negs)
				pairs++
			}
		}
	}
	return loss, pairs
}

// referenceDeterministic mirrors TrainCorpusParallelStats: the same
// contiguous shards and per-shard streams, applied in shard order.
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

// assertTablesClose requires every In/Out value within tol of the
// reference, absolutely.
func assertTablesClose(t *testing.T, what string, got, want *Model, tol float64) {
	t.Helper()
	for _, tab := range []struct {
		name      string
		got, want []float64
	}{{"In", got.In.Data, want.In.Data}, {"Out", got.Out.Data, want.Out.Data}} {
		for i := range tab.want {
			if d := math.Abs(tab.got[i] - tab.want[i]); !(d <= tol) {
				t.Fatalf("%s: %s[%d] = %v, reference %v (diff %g > %g)", what, tab.name, i, tab.got[i], tab.want[i], d, tol)
			}
		}
	}
}

func assertLossClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	assertLossNear(t, what, got, want, 1e-12)
}

func assertLossNear(t *testing.T, what string, got, want, rel float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > rel*math.Abs(want) {
		t.Fatalf("%s: mean loss %v, reference %v (rel diff %g > %g)", what, got, want, math.Abs(got-want)/math.Abs(want), rel)
	}
}

// Tolerances of the table-sigmoid kernel against the exact reference.
// One score differs by at most the table's interpolation error (see
// TestTableSigmoidMatchesExact). Over three passes on the 24-node test
// corpus the measured drift was at most 2.6e-7 in any table entry and
// 4e-8 relative in the mean loss; the bounds leave about 4x and 25x of
// headroom.
const (
	scoreTol     = 2.5e-7
	passTableTol = 1e-6
	passLossRel  = 1e-6
)

// TestTableSigmoidMatchesExact bounds the table's interpolation error
// over a dense grid on [−9, 9] (the measured maximum is 1.84e-7) and
// pins the exact fallbacks: at and beyond ±sigmoidBound, for ±Inf and
// for NaN.
func TestTableSigmoidMatchesExact(t *testing.T) {
	var worst, worstX float64
	for i := -900000; i <= 900000; i++ {
		x := float64(i) * 1e-5
		if d := math.Abs(tableSigmoid(x) - sigmoid(x)); d > worst {
			worst, worstX = d, x
		}
	}
	if worst > scoreTol {
		t.Fatalf("table sigmoid error %g at x=%v, want <= %g", worst, worstX, scoreTol)
	}
	for _, x := range []float64{-8, 8, math.Nextafter(-8, -9), 8.5, -8.5, 20, -20, 745, -745, 1e300, -1e300} {
		if got, want := tableSigmoid(x), sigmoid(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tableSigmoid(%v) = %v, want the exact %v", x, got, want)
		}
	}
	// Just inside the range the interpolation must stay in the table.
	for _, x := range []float64{math.Nextafter(8, 0), math.Nextafter(-8, 0)} {
		if d := math.Abs(tableSigmoid(x) - sigmoid(x)); d > scoreTol {
			t.Fatalf("tableSigmoid(%v) error %g", x, d)
		}
	}
	if got := tableSigmoid(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("tableSigmoid(NaN) = %v, want NaN", got)
	}
	if got := tableSigmoid(math.Inf(1)); got != 1 {
		t.Fatalf("tableSigmoid(+Inf) = %v, want 1", got)
	}
	if got := tableSigmoid(math.Inf(-1)); got != 0 {
		t.Fatalf("tableSigmoid(-Inf) = %v, want 0", got)
	}
}

// TestPairUpdateMatchesReference checks single pair updates on random
// rows: the clamped probability pairUpdate returns is within scoreTol
// of the reference's, and for the step g the kernel derives from its
// own score, the updated target row and gradient are bit-identical to
// the reference update half.
func TestPairUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dim := range []int{1, 3, 4, 16, 64, 67} {
		for trial := 0; trial < 200; trial++ {
			// Scales from 0.05 to 4 put the dot inside and outside the
			// table's ±8 range.
			scale := 0.05 + 4*rng.Float64()
			in, out, grad := make([]float64, dim), make([]float64, dim), make([]float64, dim)
			for i := range in {
				in[i] = scale * rng.NormFloat64()
				out[i] = scale * rng.NormFloat64()
				grad[i] = rng.NormFloat64()
			}
			label := float64(trial % 2)
			lr := 0.025
			wantOut, wantGrad := append([]float64(nil), out...), append([]float64(nil), grad...)
			ref := referenceScore(in, out)
			score := tableSigmoid(mat.Dot(in, out))
			referenceUpdate(in, wantOut, wantGrad, (score-label)*lr)

			p := pairUpdate(in, out, grad, label, lr)
			want := math.Max(ref, 1e-10)
			if label == 0 {
				want = math.Max(1-ref, 1e-10)
			}
			if d := math.Abs(p - want); d > scoreTol {
				t.Fatalf("dim %d trial %d: probability %v, reference %v (diff %g)", dim, trial, p, want, d)
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) ||
					math.Float64bits(grad[i]) != math.Float64bits(wantGrad[i]) {
					t.Fatalf("dim %d trial %d: element %d out/grad %v/%v, reference update %v/%v",
						dim, trial, i, out[i], grad[i], wantOut[i], wantGrad[i])
				}
			}
		}
	}
}

// TestPairKernelMatchesReference trains several passes with homo (±1)
// and hetero (±2) offsets, serially and through the sharded path with
// two workers, and compares each pass against the reference kernel on
// a cloned model, within the pass tolerances above.
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
				assertLossNear(t, name("serial"), gl, wl/float64(wp), passLossRel)
				assertTablesClose(t, name("serial"), got, want, passTableTol)
			}

			// Sharded apply, workers=2.
			got = NewModel(nodes, dim, rand.New(rand.NewSource(24)))
			want = cloneModel(got)
			for pass := 0; pass < 3; pass++ {
				lr := 0.05 * (1 - float64(pass)/3)
				seed := int64(100 + pass)
				gl, gp, _ := got.TrainCorpusParallelStats(paths, offsets, neg, lr, s, seed, 2)
				wl, wp := referenceDeterministic(want, paths, offsets, neg, lr, s, seed, 2)
				if gp != wp {
					t.Fatalf("%s: %d pairs, reference %d", name("workers=2"), gp, wp)
				}
				assertLossNear(t, name("workers=2"), gl, wl, passLossRel)
				assertTablesClose(t, name("workers=2"), got, want, passTableTol)
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
	b := newPairBatch(got.Dim(), rand.New(rand.NewSource(32)))
	got.trainPair(0, 1, neg, 1e-6, s, &b)
	gl := b.total()
	negs := rngstream.NewSplitMix64(rand.New(rand.NewSource(32)).Uint64())
	wl := referenceTrainPair(want, 0, 1, neg, 1e-6, s, &negs)
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
	b := newPairBatch(sat.Dim(), rand.New(rand.NewSource(34)))
	sat.trainPair(0, 1, 64, 1e-6, ss, &b)
	if loss := b.total(); !math.IsNaN(loss) {
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
