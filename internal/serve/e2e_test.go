package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"

	"transn/internal/graph"
	"transn/internal/transn"
)

// graphID converts a test-local int index to a graph.NodeID.
func graphID(i int) graph.NodeID { return graph.NodeID(i) }

// getJSON fetches url and decodes the body into out, failing on any
// non-200 status.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// sameVec asserts an embedding decoded from a JSON response equals the
// model's vector exactly: encoding/json emits the shortest
// representation that round-trips, so serving must not lose a single
// bit relative to direct Model calls.
func sameVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (byte-match violated)", what, i, got[i], want[i])
		}
	}
}

// TestServeEndToEnd trains the quickstart model, serves it on an
// ephemeral port, and asserts every data endpoint byte-matches direct
// Model calls.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gp, mp, m := writeModelFiles(t, dir, 1)
	sv, err := New(Config{GraphPath: gp, ModelPath: mp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	base := "http://" + addr

	f, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph
	idOf := func(name string) int {
		for _, n := range g.Nodes {
			if n.Name == name {
				return int(n.ID)
			}
		}
		t.Fatalf("no node %q", name)
		return -1
	}
	viewOf := func(name string) int {
		for vi, v := range f.Views() {
			if g.EdgeTypeNames[v.Type] == name {
				return vi
			}
		}
		t.Fatalf("no view %q", name)
		return -1
	}

	// Liveness and readiness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	var ready ReadyResponse
	getJSON(t, base+"/readyz", &ready)
	if !ready.Ready || ready.Generation != 1 {
		t.Fatalf("readyz = %+v", ready)
	}

	// Model metadata.
	var meta ModelResponse
	getJSON(t, base+"/v1/model", &meta)
	if meta.Dim != m.Cfg.Dim || meta.Nodes != g.NumNodes() || len(meta.Views) != 3 {
		t.Fatalf("model metadata = %+v", meta)
	}

	// Final embedding byte-matches Embeddings().
	var emb EmbeddingResponse
	getJSON(t, base+"/v1/embedding?node=A1", &emb)
	sameVec(t, "final(A1)", emb.Embedding, m.Embeddings().Row(idOf("A1")))

	// Per-view embedding byte-matches ViewEmbedding.
	var vemb EmbeddingResponse
	getJSON(t, base+"/v1/embedding?node=A1&view=affiliation", &vemb)
	sameVec(t, "view(A1,affiliation)", vemb.Embedding,
		m.ViewEmbedding(viewOf("affiliation"), graphID(idOf("A1"))))

	// Translation byte-matches Frozen.TranslateNode — twice, so the
	// second response is served from the LRU and still byte-matches.
	wantTr, err := f.TranslateNode(viewOf("authorship"), viewOf("affiliation"), graphID(idOf("A1")))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var tr TranslateResponse
		getJSON(t, base+"/v1/translate?node=A1&from=authorship&to=affiliation", &tr)
		sameVec(t, fmt.Sprintf("translate(A1) pass %d", pass), tr.Embedding, wantTr)
	}

	// Exact k-NN (the escape hatch) matches a direct cosine ranking over
	// final embeddings, float for float.
	var knn KNNResponse
	getJSON(t, base+"/v1/knn?node=A1&k=3&exact=true", &knn)
	if knn.K != 3 || len(knn.Neighbors) != 3 {
		t.Fatalf("knn = %+v", knn)
	}
	snap := sv.snap.Load()
	wantN := snap.knnExact(graphID(idOf("A1")), 3)
	for i := range wantN {
		if knn.Neighbors[i].Node != wantN[i].Node || knn.Neighbors[i].Similarity != wantN[i].Similarity {
			t.Fatalf("knn[%d] = %+v, want %+v", i, knn.Neighbors[i], wantN[i])
		}
	}
	// The default (HNSW) path returns the same neighbors in the same
	// order on a graph this small; similarities agree to rounding (the
	// index reports 1-distance, which can differ in the last ulp).
	var aknn KNNResponse
	getJSON(t, base+"/v1/knn?node=A1&k=3", &aknn)
	if aknn.K != 3 || len(aknn.Neighbors) != 3 {
		t.Fatalf("ann knn = %+v", aknn)
	}
	for i := range wantN {
		if aknn.Neighbors[i].Node != wantN[i].Node {
			t.Fatalf("ann knn[%d] = %+v, want node %q", i, aknn.Neighbors[i], wantN[i].Node)
		}
		if d := aknn.Neighbors[i].Similarity - wantN[i].Similarity; d > 1e-9 || d < -1e-9 {
			t.Fatalf("ann knn[%d] similarity %v, want %v", i, aknn.Neighbors[i].Similarity, wantN[i].Similarity)
		}
	}
	for i := 1; i < len(aknn.Neighbors); i++ {
		if aknn.Neighbors[i].Similarity > aknn.Neighbors[i-1].Similarity {
			t.Fatalf("knn not sorted: %+v", aknn.Neighbors)
		}
	}

	// Online inference byte-matches Model.InferNode.
	body := `{"edges":[{"neighbor":"P1","type":"authorship"},{"neighbor":"U1","type":"affiliation","weight":2}]}`
	wantInf, err := m.InferNode([]transn.NeighborEdge{
		{Neighbor: graphID(idOf("P1")), Type: f.Views()[viewOf("authorship")].Type, Weight: 1},
		{Neighbor: graphID(idOf("U1")), Type: f.Views()[viewOf("affiliation")].Type, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(base+"/v1/infer", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	var inf InferResponse
	if err := json.NewDecoder(post.Body).Decode(&inf); err != nil {
		t.Fatal(err)
	}
	if post.StatusCode != http.StatusOK {
		t.Fatalf("/v1/infer: %d", post.StatusCode)
	}
	sameVec(t, "infer", inf.Embedding, wantInf)

	// Selfcheck returns a diagnostics document against the live model.
	var selfcheck struct {
		Schema string `json:"schema"`
	}
	getJSON(t, base+"/admin/selfcheck", &selfcheck)
	if selfcheck.Schema != "transn.diagnostics/v1" {
		t.Fatalf("selfcheck schema = %q", selfcheck.Schema)
	}
}

// TestServeHotReloadUnderLoad hammers the server from concurrent
// clients while the snapshot is hot-swapped for a differently seeded
// model, asserting zero request errors across the swap and that
// post-reload responses byte-match the new model.
func TestServeHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	gp, mp, _ := writeModelFiles(t, dir, 1)
	sv, err := New(Config{GraphPath: gp, ModelPath: mp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	base := "http://" + addr

	// Train the replacement snapshot into a scratch dir, then move it
	// over the served path (the reload reads the configured paths).
	dir2 := t.TempDir()
	_, mp2, m2 := writeModelFiles(t, dir2, 2)

	const clients = 4
	stop := make(chan struct{})
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	targets := []string{
		"/v1/embedding?node=A1",
		"/v1/embedding?node=A3&view=affiliation",
		"/v1/translate?node=A1&from=authorship&to=affiliation",
		"/v1/knn?node=A2&k=3",
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := base + targets[(c+i)%len(targets)]
				resp, err := http.Get(url)
				if err != nil {
					errc <- fmt.Errorf("GET %s: %v", url, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("GET %s: %d %s mid-reload", url, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}

	// Swap the model file and hot-reload mid-traffic. The new file is
	// renamed over the served path: the live generation maps the old
	// file, so rewriting it in place would change tables under
	// in-flight requests.
	if err := os.Rename(mp2, mp); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl.Generation != 2 {
		t.Fatalf("reload: %d %+v", resp.StatusCode, rl)
	}

	// Let traffic run against the new snapshot before stopping.
	for i := 0; i < 50; i++ {
		r2, err := http.Get(base + "/v1/embedding?node=A2")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The served embedding now byte-matches the second model.
	var emb EmbeddingResponse
	getJSON(t, base+"/v1/embedding?node=A1", &emb)
	var a1 int
	for _, n := range m2.Graph.Nodes {
		if n.Name == "A1" {
			a1 = int(n.ID)
		}
	}
	sameVec(t, "post-reload final(A1)", emb.Embedding, m2.Embeddings().Row(a1))
	var ready ReadyResponse
	getJSON(t, base+"/readyz", &ready)
	if ready.Generation != 2 {
		t.Fatalf("generation = %d after reload, want 2", ready.Generation)
	}
}
