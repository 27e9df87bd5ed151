package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/mat"
)

// knnSortRef is the sort-based exact k-NN the scan replaced, kept as
// the reference: score every other row as cosine similarity over the
// final embeddings (0 when either norm is 0), sort all of them by
// (similarity desc, node ID asc), keep the first k.
func knnSortRef(s *snapshot, id graph.NodeID, k int) []Neighbor {
	final := s.frozen.FinalTable()
	q := final.Row(int(id))
	qn := s.norms[id]
	type scored struct {
		id  int
		sim float64
	}
	all := make([]scored, 0, final.R-1)
	for i := 0; i < final.R; i++ {
		if i == int(id) {
			continue
		}
		sim := 0.0
		if qn > 0 && s.norms[i] > 0 {
			sim = mat.Dot(q, final.Row(i)) / (qn * s.norms[i])
		}
		all = append(all, scored{id: i, sim: sim})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	g := s.frozen.Graph()
	out := make([]Neighbor, 0, k)
	for _, sc := range all[:k] {
		out = append(out, Neighbor{Node: g.Nodes[sc.id].Name, Similarity: sc.sim})
	}
	return out
}

// tableSnapshot serves table as the final embedding table of a
// chainModel of its shape.
func tableSnapshot(t testing.TB, table *mat.Dense) *snapshot {
	t.Helper()
	f, err := chainModel(t, table.R, table.C).FreezeWithFinal(table)
	if err != nil {
		t.Fatal(err)
	}
	return newSnapshot(f, 1)
}

// tieTable draws every entry from {-1, 0, 1}: few distinct rows, so
// many exact similarity ties, and some all-zero rows.
func tieTable(n, dim int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	t := mat.New(n, dim)
	for i := range t.Data {
		t.Data[i] = float64(rng.Intn(3) - 1)
	}
	return t
}

// zeroRows zeroes every third row of t, row 0 (a query) included.
func zeroRows(t *mat.Dense) *mat.Dense {
	for i := 0; i < t.R; i += 3 {
		clear(t.Row(i))
	}
	return t
}

// TestKNNMatchesSortReference holds the scan to the sort-based
// reference on random, tie-heavy and zero-norm tables (zero-norm
// queries included), for every k from 1 to maxK — which on the small
// tables covers k ≥ N−1 — with identical neighbour ids and similarity
// bits.
func TestKNNMatchesSortReference(t *testing.T) {
	var tables []*mat.Dense
	for _, n := range []int{2, 3, 5, 64, 65, 101, 102, 260} {
		tables = append(tables,
			ann.RandomTable(n, 8, int64(n)),
			tieTable(n, 3, int64(n)),
			tieTable(n, 1, int64(n)+1),
			zeroRows(ann.RandomTable(n, 5, int64(n)+2)),
			zeroRows(tieTable(n, 2, int64(n)+3)))
	}
	for ti, table := range tables {
		s := tableSnapshot(t, table)
		stride := 1
		if table.R > 65 {
			stride = 7
		}
		for id := 0; id < table.R; id += stride {
			full := knnSortRef(s, graph.NodeID(id), table.R)
			for k := 1; k <= maxK; k++ {
				got := s.knn(graph.NodeID(id), k)
				want := full[:min(k, len(full))]
				if len(got) != len(want) {
					t.Fatalf("table %d (%dx%d) id %d k %d: %d neighbours, want %d", ti, table.R, table.C, id, k, len(got), len(want))
				}
				for j := range want {
					if got[j].Node != want[j].Node || math.Float64bits(got[j].Similarity) != math.Float64bits(want[j].Similarity) {
						t.Fatalf("table %d (%dx%d) id %d k %d rank %d: %+v, want %+v", ti, table.R, table.C, id, k, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestKNNAllocsResponseOnly pins the scan to one allocation: the
// response's []Neighbor. Scores, candidate rows and the top-k list
// live on the stack.
func TestKNNAllocsResponseOnly(t *testing.T) {
	s := tableSnapshot(t, ann.RandomTable(1004, 64, 3))
	for _, k := range []int{1, 10, maxK} {
		id := graph.NodeID(0)
		allocs := testing.AllocsPerRun(50, func() {
			s.knn(id, k)
			id = (id + 1) % 1004
		})
		if allocs != 1 {
			t.Errorf("k=%d: knn allocates %v times per call, want 1 (the response)", k, allocs)
		}
	}
}

// BenchmarkKNN times one k=10 scan over random 64-d tables of the
// full-size BLOG (1,004) and App-Weekly (1,630) node counts, cycling
// the query over every row.
func BenchmarkKNN(b *testing.B) {
	for _, n := range []int{1004, 1630} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			s := tableSnapshot(b, ann.RandomTable(n, 64, 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.knn(graph.NodeID(i%n), 10)
			}
		})
	}
}

// queryEndpoints are the GET endpoints FuzzQueryParams drives.
var queryEndpoints = []string{"/v1/embedding", "/v1/translate", "/v1/knn"}

// FuzzQueryParams sends arbitrary query strings to the GET endpoints
// (ep picks one of queryEndpoints) on the committed quickstart
// fixture. Every answer must be a 200 or a typed 4xx envelope, never a
// 5xx; a 200 knn body lists min(k, N−1) distinct neighbours other than
// the query node, by similarity descending, ties by node ID. The
// committed corpus is under testdata/fuzz/FuzzQueryParams.
func FuzzQueryParams(f *testing.F) {
	sv, err := New(Config{
		GraphPath: filepath.Join("testdata", "quickstart.tsv"),
		ModelPath: filepath.Join("testdata", "quickstart.snap"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sv.Shutdown() })
	h := sv.Handler()
	s := sv.snap.Load()
	n := s.frozen.Graph().NumNodes()
	f.Fuzz(func(t *testing.T, ep uint8, query string) {
		r := httptest.NewRequest(http.MethodGet, queryEndpoints[int(ep)%len(queryEndpoints)], nil)
		r.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			var env ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("%d body is not an envelope: %v\n%s", rec.Code, err, body)
			}
			if env.Schema != ErrorSchema || env.Error.Code == "" || env.Error.Status != rec.Code {
				t.Fatalf("%d envelope = %+v", rec.Code, env)
			}
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d for %s?%s: %s", rec.Code, r.URL.Path, query, body)
		case r.URL.Path == "/v1/knn":
			var resp KNNResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("200 knn body does not decode: %v\n%s", err, body)
			}
			q := r.URL.Query()
			k := 10
			if ks := q.Get("k"); ks != "" {
				if k, err = strconv.Atoi(ks); err != nil {
					t.Fatalf("200 for unparsable k %q", ks)
				}
			}
			if want := min(k, n-1); resp.K != want || len(resp.Neighbors) != want {
				t.Fatalf("k=%d: %d neighbours (k field %d), want %d", k, len(resp.Neighbors), resp.K, want)
			}
			self := s.nodeByName[q.Get("node")]
			seen := map[graph.NodeID]bool{self: true}
			for j, nb := range resp.Neighbors {
				id, ok := s.nodeByName[nb.Node]
				if !ok || seen[id] {
					t.Fatalf("neighbour %d (%q) is unknown, the query node or repeated", j, nb.Node)
				}
				seen[id] = true
				if j == 0 {
					continue
				}
				prev := resp.Neighbors[j-1]
				if prev.Similarity < nb.Similarity || prev.Similarity == nb.Similarity && s.nodeByName[prev.Node] > id {
					t.Fatalf("neighbours out of order at %d: %+v", j, resp.Neighbors)
				}
			}
		default:
			var resp EmbeddingResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("200 body does not decode: %v\n%s", err, body)
			}
			if resp.Dim != s.frozen.Dim() || len(resp.Embedding) != resp.Dim {
				t.Fatalf("dim %d with %d values, want %d", resp.Dim, len(resp.Embedding), s.frozen.Dim())
			}
		}
	})
}
