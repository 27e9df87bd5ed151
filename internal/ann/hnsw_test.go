package ann

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"transn/internal/mat"
)

func buildRandom(t *testing.T, n, dim int, cfg Config) (*Index, *mat.Dense, []float64) {
	t.Helper()
	table := RandomTable(n, dim, 7)
	norms := Norms(table)
	ix, err := Build(table, norms, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, table, norms
}

// With ef >= n the beam covers every reachable node, so on a connected
// graph HNSW must return exactly the brute-force top-k, in the same
// (sim desc, id asc) order.
func TestSearchMatchesBruteAtFullEf(t *testing.T) {
	ix, table, norms := buildRandom(t, 200, 8, Config{M: 8, Seed: 3})
	for row := 0; row < table.R; row += 17 {
		q, qn := table.Row(row), norms[row]
		got, evals, err := ix.Search(q, qn, 10, table.R)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if evals <= 0 {
			t.Fatalf("Search reported %d distance evals", evals)
		}
		want := BruteKNN(table, norms, q, qn, 10)
		if len(got) != len(want) {
			t.Fatalf("row %d: got %d results, want %d", row, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("row %d rank %d: got id %d want %d", row, i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestRecallAtTen(t *testing.T) {
	const n, dim, k = 2000, 16, 10
	ix, table, norms := buildRandom(t, n, dim, Config{Seed: 11})
	recall := 0.0
	queries := 0
	for row := 0; row < n; row += 19 {
		q, qn := table.Row(row), norms[row]
		got, _, err := ix.Search(q, qn, k, 128)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		recall += overlap(BruteKNN(table, norms, q, qn, k), got) / k
		queries++
	}
	recall /= float64(queries)
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.4f, want >= 0.95", recall)
	}
}

// Two builds of the same table and Config must serialize to identical
// bytes — the property SNAPSHOT.md §1 relies on for reproducible packs.
func TestBuildDeterministic(t *testing.T) {
	table := RandomTable(500, 12, 21)
	a, err := Build(table, nil, Config{M: 6, EfConstruction: 50, Seed: 9})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := Build(table, nil, Config{M: 6, EfConstruction: 50, Seed: 9})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !bytes.Equal(a.AppendTo(nil), b.AppendTo(nil)) {
		t.Fatal("two builds of the same inputs serialized differently")
	}
	c, err := Build(table, nil, Config{M: 6, EfConstruction: 50, Seed: 10})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if bytes.Equal(a.AppendTo(nil), c.AppendTo(nil)) {
		t.Fatal("different seeds serialized identically")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	ix, table, norms := buildRandom(t, 300, 10, Config{M: 8, Seed: 5})
	data := ix.AppendTo(nil)
	dec, err := Decode(data, table, norms)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(data, dec.AppendTo(nil)) {
		t.Fatal("decode→re-encode is not the identity")
	}
	for row := 0; row < table.R; row += 23 {
		q, qn := table.Row(row), norms[row]
		a, _, err := ix.Search(q, qn, 5, 64)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		b, _, err := dec.Search(q, qn, 5, 64)
		if err != nil {
			t.Fatalf("decoded Search: %v", err)
		}
		if len(a) != len(b) {
			t.Fatalf("row %d: result count diverged", row)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d rank %d: built %+v decoded %+v", row, i, a[i], b[i])
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	ix, table, norms := buildRandom(t, 50, 4, Config{M: 4, Seed: 1})
	good := ix.AppendTo(nil)
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"truncated header", good[:serHeaderSize-1]},
		{"truncated levels", good[:serHeaderSize+10]},
		{"truncated layer", good[:len(good)-9]},
		{"trailing garbage", mutate(func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0, 0, 0, 0) })},
		{"entry out of range", mutate(func(b []byte) []byte { b[40] = 0xff; b[41] = 0xff; return b })},
		{"level above max", mutate(func(b []byte) []byte { b[serHeaderSize+3] = maxLevelCap + 1; return b })},
		{"offset past edge count", mutate(func(b []byte) []byte {
			// Layer 0's offs[1], which a later offs[2] undercuts.
			lv := serHeaderSize + 50 + pad8(50)
			binary.LittleEndian.PutUint32(b[lv+8+4:], 0xfffffff0)
			return b
		})},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data, table, norms); err == nil {
			t.Errorf("%s: Decode accepted corrupted input", tc.name)
		}
	}
	if _, err := Decode(good, mat.New(49, 4), nil); err == nil {
		t.Error("Decode accepted a table with the wrong row count")
	}
	if _, err := Decode(good, table, norms); err != nil {
		t.Errorf("Decode rejected pristine input: %v", err)
	}
}

func TestZeroNormRows(t *testing.T) {
	table := RandomTable(40, 6, 13)
	for j := 0; j < table.C; j++ {
		table.Set(4, j, 0)
	}
	norms := Norms(table)
	ix, err := Build(table, norms, Config{M: 4, Seed: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, _, err := ix.Search(table.Row(4), 0, 5, 40)
	if err != nil {
		t.Fatalf("Search from zero-norm row: %v", err)
	}
	for _, c := range got {
		if c.Sim != 0 {
			t.Fatalf("zero-norm query produced sim %v for id %d, want 0", c.Sim, c.ID)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	ix, table, norms := buildRandom(t, 30, 5, Config{M: 4, Seed: 4})
	if _, _, err := ix.Search(make([]float64, 4), 1, 3, 8); err == nil {
		t.Error("Search accepted a wrong-dimension query")
	}
	if _, _, err := ix.Search(table.Row(0), norms[0], 0, 8); err == nil {
		t.Error("Search accepted k=0")
	}
	if _, err := Build(mat.New(0, 0), nil, Config{}); err == nil {
		t.Error("Build accepted an empty table")
	}
	if _, err := Build(table, norms[:10], Config{}); err == nil {
		t.Error("Build accepted a short norms slice")
	}
}

func TestStats(t *testing.T) {
	ix, _, _ := buildRandom(t, 100, 6, Config{M: 5, Seed: 8})
	st := ix.Stats()
	if st.Nodes != 100 || st.Dim != 6 || st.M != 5 || st.Edges <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Entry < 0 || st.Entry >= 100 || st.MaxLevel < 0 {
		t.Fatalf("implausible entry/level: %+v", st)
	}
}

// The acceptance criterion behind the index: at >= 10k nodes the HNSW
// p99 must beat the brute-force p99. Skipped under -short (it builds a
// 10k-node index and times real queries).
func TestHNSWFasterThanBruteAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	doc, err := MeasureBench("test", []int{10000}, 32, 10, 120, 64, Config{Seed: 17}, 17)
	if err != nil {
		t.Fatalf("MeasureBench: %v", err)
	}
	e := doc.Entries[0]
	if e.HNSWP99Micros >= e.BruteP99Micros {
		t.Fatalf("HNSW p99 %.1fµs not faster than brute p99 %.1fµs at 10k nodes", e.HNSWP99Micros, e.BruteP99Micros)
	}
	if e.RecallAtK < 0.9 {
		t.Fatalf("recall@10 = %.3f at 10k nodes, want >= 0.9", e.RecallAtK)
	}
}

// TestKNNBenchTrajectory validates the committed benchmark artifact,
// and regenerates it when TRANSN_KNN_BENCH_OUT names a target path
// (CI uses that mode to upload a fresh measurement).
func TestKNNBenchTrajectory(t *testing.T) {
	if out := os.Getenv("TRANSN_KNN_BENCH_OUT"); out != "" {
		doc, err := MeasureBench("pr10-trajectory", []int{1000, 10000, 25000}, 32, 10, 200, 64, Config{Seed: 17}, 17)
		if err != nil {
			t.Fatalf("MeasureBench: %v", err)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		data = append(data, '\n')
		if err := ValidateBench(data); err != nil {
			t.Fatalf("generated doc fails validation: %v", err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
		t.Logf("wrote %s", out)
		return
	}
	path := filepath.Join("..", "..", "BENCH_trajectory", "BENCH_knn_pr10.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed knn bench artifact missing: %v", err)
	}
	if err := ValidateBench(data); err != nil {
		t.Fatalf("committed knn bench artifact invalid: %v", err)
	}
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	improvedAt10k := false
	for _, e := range doc.Entries {
		if e.Nodes >= 10000 && e.HNSWP99Micros < e.BruteP99Micros {
			improvedAt10k = true
		}
	}
	if !improvedAt10k {
		t.Fatal("committed artifact shows no knn p99 improvement at >= 10k nodes")
	}
}

func TestValidateBenchRejectsBadDocs(t *testing.T) {
	good := BenchDoc{
		Schema: BenchSchema, Name: "x", Dim: 8, K: 10, Ef: 64, Queries: 10,
		M: 16, EfConstruction: 200,
		Entries: []BenchEntry{{Nodes: 100, BruteP50Micros: 1, BruteP99Micros: 2, HNSWP50Micros: 1, HNSWP99Micros: 1.5, RecallAtK: 1, SpeedupP99: 1.3}},
	}
	enc := func(d BenchDoc) []byte {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	if err := ValidateBench(enc(good)); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	bad := good
	bad.Schema = "nope"
	if err := ValidateBench(enc(bad)); err == nil {
		t.Error("wrong schema accepted")
	}
	bad = good
	bad.Entries = nil
	if err := ValidateBench(enc(bad)); err == nil {
		t.Error("empty entries accepted")
	}
	bad = good
	bad.Entries = []BenchEntry{{Nodes: 100, RecallAtK: 1.5}}
	if err := ValidateBench(enc(bad)); err == nil {
		t.Error("out-of-range recall accepted")
	}
	if err := ValidateBench([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestBuildAndSearchPinned pins a seeded build's serialized graph and
// a batch of searches, results and distance-evaluation counts alike,
// by FNV-64a, so a change to the beam search or its pool that alters
// which candidates are kept, or in what order, fails here. The values
// were recorded from the two-heap beam search (referenceSearchLayer)
// and hold unchanged for the sorted-pool search that replaced it; they
// assume amd64's math.Log and Dot bits.
func TestBuildAndSearchPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned values are amd64's")
	}
	const (
		wantGraph  uint64 = 0x800b6ef7fb8e3a05
		wantSearch uint64 = 0x0b2c8941c4a49833
		wantEvals         = 24509
	)
	table := RandomTable(1500, 16, 13)
	ix, err := Build(table, nil, Config{M: 8, EfConstruction: 48, Seed: 5})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := fnv.New64a()
	g.Write(ix.AppendTo(nil))

	s := fnv.New64a()
	var buf [8]byte
	evals := 0
	for row := 0; row < table.R; row += 29 {
		for _, ef := range []int{10, 40} {
			got, n, err := ix.Search(table.Row(row), ix.norms[row], 10, ef)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			evals += n
			for _, c := range got {
				binary.LittleEndian.PutUint64(buf[:], uint64(c.ID))
				s.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Sim))
				s.Write(buf[:])
			}
		}
	}
	if got := g.Sum64(); got != wantGraph {
		t.Errorf("graph FNV-64a = %#x, want %#x", got, wantGraph)
	}
	if got := s.Sum64(); got != wantSearch {
		t.Errorf("search FNV-64a = %#x, want %#x", got, wantSearch)
	}
	if evals != wantEvals {
		t.Errorf("distance evaluations = %d, want %d", evals, wantEvals)
	}
}

// referenceSearchLayer is the two-heap beam search that searchLayer
// replaced, kept as its specification: expand the closest unexpanded
// candidate (a min-heap on (dist, id)) until it is worse than the worst
// of ef results (a max-heap), then sort the results ascending.
func referenceSearchLayer(ix *Index, q []float64, qn float64, eps []int32, ef, l int, sc *scratch) []item {
	sc.epoch++
	var cands, results []item
	for _, ep := range eps {
		if sc.visited[ep] == sc.epoch {
			continue
		}
		sc.visited[ep] = sc.epoch
		it := item{dist: ix.dist(q, qn, ep), id: ep}
		sc.distEvals++
		cands = pushMin(cands, it)
		results = pushMax(results, it)
	}
	adj := ix.layers[l].adj
	for len(cands) > 0 {
		var c item
		cands, c = popMin(cands)
		if len(results) >= ef && lessItem(results[0], c) {
			break
		}
		for _, nb := range adj[c.id] {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			sc.visited[nb] = sc.epoch
			it := item{dist: ix.dist(q, qn, nb), id: nb}
			sc.distEvals++
			switch {
			case len(results) < ef:
				cands = pushMin(cands, it)
				results = pushMax(results, it)
			case lessItem(it, results[0]):
				// Full: it evicts the worst kept result.
				cands = pushMin(cands, it)
				results[0] = it
				siftDownMax(results, 0)
			}
		}
	}
	sortMaxHeap(results)
	return results
}

// sortMaxHeap sorts a slice that is already a max-heap by (dist, id)
// into ascending order.
func sortMaxHeap(s []item) {
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDownMax(s[:end], 0)
	}
}

func pushMin(h []item, it item) []item {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessItem(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popMin(h []item) ([]item, item) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDownMin(h, 0)
	return h, top
}

func siftDownMin(h []item, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && lessItem(h[l], h[m]) {
			m = l
		}
		if r < len(h) && lessItem(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func pushMax(h []item, it item) []item {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessItem(h[p], h[i]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func siftDownMax(h []item, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && lessItem(h[m], h[l]) {
			m = l
		}
		if r < len(h) && lessItem(h[m], h[r]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// tieTable returns an n×dim table built to make distances tie: rows of
// small integers, exact copies of earlier rows and zero rows.
func tieTable(rng *rand.Rand, n, dim int) *mat.Dense {
	table := mat.New(n, dim)
	for i := 0; i < n; i++ {
		row := table.Row(i)
		switch r := rng.Intn(10); {
		case r == 0: // zero norm: distance 1 to everything
		case r < 4 && i > 0:
			copy(row, table.Row(rng.Intn(i)))
		default:
			for j := range row {
				row[j] = float64(rng.Intn(5) - 2)
			}
		}
	}
	return table
}

// The sorted-pool search must return exactly what the two-heap search
// returns, the same (dist, id) items in the same order, after the same
// number of distance evaluations, on every layer, for every ef from 1
// past the row count and for entry sets up to and past ef (entry points
// all enter, as in the heap search). Tied distances, from duplicate and
// small-integer rows, exercise the id tie-break; zero rows and zero
// queries exercise the zero-norm rule. The expanded flag is the pool's
// own bookkeeping and is not compared.
func TestSearchLayerMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n, dim := 2+rng.Intn(150), 1+rng.Intn(6)
		table := tieTable(rng, n, dim)
		cfg := Config{M: 2 + rng.Intn(7), EfConstruction: 1 + rng.Intn(40), Seed: int64(trial)}
		ix, err := Build(table, nil, cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		pool, ref := newScratch(n, ix.cfg.M), newScratch(n, ix.cfg.M)
		for probe := 0; probe < 40; probe++ {
			l := rng.Intn(len(ix.layers))
			var onLayer []int32
			for id, lv := range ix.levels {
				if int(lv) >= l {
					onLayer = append(onLayer, int32(id))
				}
			}
			ef := 1 + rng.Intn(n+3)
			eps := make([]int32, 1+rng.Intn(ef+2))
			for i := range eps {
				eps[i] = onLayer[rng.Intn(len(onLayer))] // repeats allowed
			}
			var q []float64
			switch rng.Intn(4) {
			case 0:
				q = make([]float64, dim) // zero query
			case 1:
				q = append([]float64(nil), table.Row(rng.Intn(n))...)
			default:
				q = RandomTable(1, dim, int64(1000*trial+probe)).Row(0)
			}
			qn := mat.Norm2(q)
			pool.distEvals, ref.distEvals = 0, 0
			got := ix.searchLayer(q, qn, eps, ef, l, pool)
			want := referenceSearchLayer(ix, q, qn, eps, ef, l, ref)
			if pool.distEvals != ref.distEvals {
				t.Fatalf("trial %d probe %d: %d distance evaluations, reference %d", trial, probe, pool.distEvals, ref.distEvals)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: %d items, reference %d", trial, probe, len(got), len(want))
			}
			for i := range got {
				if got[i].id != want[i].id || math.Float64bits(got[i].dist) != math.Float64bits(want[i].dist) {
					t.Fatalf("trial %d probe %d rank %d: got (%v, %d), reference (%v, %d)",
						trial, probe, i, got[i].dist, got[i].id, want[i].dist, want[i].id)
				}
			}
		}
	}
}

// A NaN distance would break lessItem's total order, so Build refuses
// rows whose norm is not finite, whether it computes the norms or is
// given them.
func TestBuildRejectsNonFiniteNorms(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		table := RandomTable(20, 4, 3)
		table.Set(7, 2, v)
		if _, err := Build(table, nil, Config{M: 4}); err == nil {
			t.Errorf("Build accepted a row holding %v", v)
		}
	}
	table := RandomTable(20, 4, 3)
	norms := Norms(table)
	norms[5] = math.Inf(1)
	if _, err := Build(table, norms, Config{M: 4}); err == nil {
		t.Error("Build accepted an infinite norm")
	}
}

// A steady-state Search allocates only the slice it returns: the beam
// search's working state comes from the index's scratch pool.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	ix, table, norms := buildRandom(t, 400, 16, Config{Seed: 2})
	search := func() {
		if _, _, err := ix.Search(table.Row(9), norms[9], 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if n := testing.AllocsPerRun(100, search); n != 1 {
		t.Fatalf("Search allocates %v times, want 1 (its result)", n)
	}
}

// benchTable is the AppWeekly final-table shape the serving snapshot
// indexes: 1,630 rows of dimension 64.
func benchTable() (*mat.Dense, []float64) {
	table := RandomTable(1630, 64, 1)
	return table, Norms(table)
}

// buildEvals replays Build's insertions into a fresh index with ix's
// levels and returns the distance evaluations its layer searches spend.
func buildEvals(ix *Index) int {
	re := &Index{cfg: ix.cfg, table: ix.table, norms: ix.norms, levels: ix.levels, entry: -1}
	sc := newScratch(ix.table.R, ix.cfg.M)
	for i := range ix.levels {
		re.insert(int32(i), sc)
	}
	return sc.distEvals
}

// BenchmarkBuild times one default-Config build of the AppWeekly-shaped
// table, the index a snapshot pack builds, and reports the distance
// evaluations its layer searches spend.
func BenchmarkBuild(b *testing.B) {
	table, norms := benchTable()
	var ix *Index
	for i := 0; i < b.N; i++ {
		var err error
		if ix, err = Build(table, norms, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buildEvals(ix)), "dist_evals/op")
}

// BenchmarkSearch times k=10 queries at the default ef over the same
// index, each query one of the table's rows, and reports the distance
// evaluations per query.
func BenchmarkSearch(b *testing.B) {
	table, norms := benchTable()
	ix, err := Build(table, norms, Config{})
	if err != nil {
		b.Fatal(err)
	}
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i * 7 % table.R
		_, n, err := ix.Search(table.Row(row), norms[row], 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		evals += n
	}
	b.ReportMetric(float64(evals)/float64(b.N), "dist_evals/op")
}
