package transn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"transn/internal/graph"
	"transn/internal/rngstream"
)

// TestTrainSegmentAllocFree pins the cross-view steady state: once a
// pair's tape has recorded a segment, training another segment of the
// pair allocates nothing (the translators' Adam state, the tape's slots
// and the segment buffers are all reused).
func TestTrainSegmentAllocFree(t *testing.T) {
	m, _ := trainedFrozen(t)
	pr := m.pairs[0]
	segs := m.sampleCommonSegments(0, 0, rngstream.New(1, 2))
	if len(segs) == 0 {
		t.Fatal("no common-node segments sampled")
	}
	fwd, bwd := m.trans[0][0], m.trans[0][1]
	step := func() { m.trainSegment(&m.pairWork[0], segs[0], pr.I, pr.J, fwd, bwd) }
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("trainSegment allocates %v times per segment after warm-up, want 0", n)
	}
}

// TestSampleCommonSegmentsAllocFree pins cross-view sampling: once a
// pair's walk and segment buffers have grown, sampling a step's
// segments allocates nothing.
func TestSampleCommonSegmentsAllocFree(t *testing.T) {
	m, _ := trainedFrozen(t)
	rng := rngstream.New(1, 3)
	sample := func() {
		for side := 0; side < 2; side++ {
			if len(m.sampleCommonSegments(0, side, rng)) == 0 {
				t.Fatal("no common-node segments sampled")
			}
		}
	}
	for i := 0; i < 10; i++ {
		sample()
	}
	if n := testing.AllocsPerRun(50, sample); n != 0 {
		t.Fatalf("sampleCommonSegments allocates %v times per step after warm-up, want 0", n)
	}
}

// TestTranslateNodeAllocs pins the serving forward pass: with the
// inference tape pool warm, TranslateNode allocates only its result.
func TestTranslateNodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m, f := trainedFrozen(t)
	pr := m.pairs[0]
	id := pr.Common[0]
	translate := func() {
		if _, err := f.TranslateNode(pr.I, pr.J, id); err != nil {
			t.Fatal(err)
		}
	}
	translate()
	if n := testing.AllocsPerRun(100, translate); n != 1 {
		t.Fatalf("TranslateNode allocates %v times, want 1 (its result)", n)
	}
}

// translateQuery is one TranslateNode call and its serial result.
type translateQuery struct {
	f        *Frozen
	from, to int
	id       graph.NodeID
	want     []float64
}

// translateQueries lists every pair's translation of its first few
// common nodes in both directions, with the serial result of each.
func translateQueries(t *testing.T, f *Frozen) []translateQuery {
	t.Helper()
	var qs []translateQuery
	for _, pr := range f.ViewPairs() {
		for _, id := range pr.Common[:min(4, len(pr.Common))] {
			for _, dir := range [2][2]int{{pr.I, pr.J}, {pr.J, pr.I}} {
				want, err := f.TranslateNode(dir[0], dir[1], id)
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, translateQuery{f, dir[0], dir[1], id, want})
			}
		}
	}
	return qs
}

// TestTranslateNodeConcurrentShapes runs TranslateNode concurrently on
// two snapshots whose translators differ in both Dim and CrossPathLen,
// as during a reload to a model of another shape. The two share the
// inference tape pools; every result must keep its snapshot's Dim and
// equal the serial result bit for bit, so no tape recorded for one
// shape is handed to the other. Run it under -race.
func TestTranslateNodeConcurrentShapes(t *testing.T) {
	g := socialGraph(t, 10, 5, 43)
	var qs []translateQuery
	for _, shape := range [][2]int{{16, 4}, {24, 6}} {
		cfg := quickCfg()
		cfg.Dim, cfg.CrossPathLen = shape[0], shape[1]
		cfg.Iterations = 1
		m, err := Train(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := m.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, translateQueries(t, f)...)
	}

	const goroutines, rounds = 6, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the queries from its own offset,
				// so the two shapes interleave across goroutines.
				for k := range qs {
					q := qs[(k+gi*len(qs)/goroutines)%len(qs)]
					got, err := q.f.TranslateNode(q.from, q.to, q.id)
					if err == nil && !sameFloats(got, q.want) {
						err = fmt.Errorf("dim %d translate %d→%d node %d diverged from the serial result",
							q.f.Dim(), q.from, q.to, q.id)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// sameFloats reports whether a and b are bit-identical.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkTranslateNode measures one serving translation at the
// default translator shape (d=64, L=8, H=2) with the tape pool warm.
func BenchmarkTranslateNode(b *testing.B) {
	cfg := quickCfg()
	cfg.Dim, cfg.CrossPathLen, cfg.Encoders = 64, 8, 2
	cfg.Iterations = 1
	m, err := Train(socialGraph(b, 10, 5, 43), cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := m.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	pr := m.pairs[0]
	id := pr.Common[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.TranslateNode(pr.I, pr.J, id); err != nil {
			b.Fatal(err)
		}
	}
}
