package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hotBodies builds one value of each self-encoding response type from
// the same names and vector; a nil vec gives nil slices throughout.
func hotBodies(name, view string, dim int, vec []float64) []jsonAppender {
	var nbrs []Neighbor
	if vec != nil {
		nbrs = make([]Neighbor, len(vec))
		for i, x := range vec {
			nbrs[i] = Neighbor{Node: name, Similarity: x}
			if i%2 == 1 {
				nbrs[i].Node = view
			}
		}
	}
	return []jsonAppender{
		EmbeddingResponse{Schema: ErrorSchema, Node: name, View: view, Dim: dim, Embedding: vec},
		TranslateResponse{Schema: ErrorSchema, Node: name, From: view, To: name, Dim: dim, Embedding: vec},
		KNNResponse{Schema: ErrorSchema, Node: name, K: dim, Neighbors: nbrs},
		InferResponse{Schema: view, Dim: dim, Embedding: vec},
	}
}

// checkAgainstMarshalIndent requires v.appendJSON to append exactly
// json.MarshalIndent's bytes, or to fail exactly when MarshalIndent does.
func checkAgainstMarshalIndent(t *testing.T, v jsonAppender) {
	t.Helper()
	want, werr := json.MarshalIndent(v, "", "  ")
	prefix := []byte("prefix")
	got, gerr := v.appendJSON(prefix)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T: MarshalIndent error %v, appendJSON error %v", v, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%T: appendJSON differs from MarshalIndent\n got: %q\nwant: %q", v, got, want)
	}
}

// FuzzResponseEncoding compares every appendJSON with json.MarshalIndent
// on arbitrary names and on vectors built from raw float64 bits (eight
// little-endian bytes per element). nilVec selects nil slices; otherwise
// fewer than eight bytes give empty ones. The committed corpus under
// testdata/fuzz/FuzzResponseEncoding covers HTML-escaped bytes, quotes
// and backslashes, control bytes, invalid UTF-8, U+2028, −0,
// subnormals, both sides of 1e-6 and 1e21, NaN and ±Inf.
func FuzzResponseEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, view string, raw []byte, nilVec bool, dim int) {
		var vec []float64
		if !nilVec {
			vec = make([]float64, len(raw)/8)
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		for _, v := range hotBodies(name, view, dim, vec) {
			checkAgainstMarshalIndent(t, v)
		}
	})
}

// TestResponseEncodingRandom runs the fuzz comparison on seeded random
// bodies: 64-float vectors over a wide exponent range and names drawn
// from an alphabet weighted toward the bytes that need escaping.
func TestResponseEncodingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "abcXYZ019 _-.:/<>&\"\\\x00\x1f\x7f\xff\xe2\x80\xa8é€"
	randName := func() string {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		vec := make([]float64, 64)
		for j := range vec {
			vec[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		for _, v := range hotBodies(randName(), randName(), len(vec), vec) {
			checkAgainstMarshalIndent(t, v)
		}
	}
}

// TestAppendJSONAllocFree pins the appenders at zero allocations for
// ASCII-safe names into a buffer with room for the body.
func TestAppendJSONAllocFree(t *testing.T) {
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) / 3
	}
	buf := make([]byte, 0, 16<<10)
	for _, v := range hotBodies("node-42", "authorship", len(vec), vec) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := v.appendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%T.appendJSON allocates %v times, want 0", v, allocs)
		}
	}
}

// TestEncodeErrorEnvelope checks that a NaN in a hot body still yields
// the fixed 500 envelope MarshalIndent's failure produced.
func TestEncodeErrorEnvelope(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, InferResponse{Schema: ErrorSchema, Dim: 1, Embedding: []float64{math.NaN()}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	want := `{"schema":"transn.serve/v1","error":{"code":"internal","message":"encoding response","status":500}}` + "\n"
	if got := w.Body.String(); got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

// TestCacheKeysUnchanged serves a translate and an infer request and
// requires their results under the keys the handlers have always used,
// spelled here with fmt as the reference.
func TestCacheKeysUnchanged(t *testing.T) {
	sv, err := New(Config{
		GraphPath: filepath.Join("testdata", "quickstart.tsv"),
		ModelPath: filepath.Join("testdata", "quickstart.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	for _, req := range []struct{ method, target, body string }{
		{"GET", "/v1/translate?node=A1&from=authorship&to=affiliation", ""},
		{"POST", "/v1/infer", `{"edges":[{"neighbor":"P1","type":"authorship"},{"neighbor":"U1","type":"affiliation","weight":2.5e-7}]}`},
	} {
		w := httptest.NewRecorder()
		sv.Handler().ServeHTTP(w, httptest.NewRequest(req.method, req.target, strings.NewReader(req.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.method, req.target, w.Code, w.Body.Bytes())
		}
	}
	s := sv.snap.Load()
	v := s.viewByName
	n := s.nodeByName
	var infer bytes.Buffer
	fmt.Fprintf(&infer, "i|%d", s.gen)
	fmt.Fprintf(&infer, "|%d,%d,%s", n["P1"], v["authorship"], strconv.FormatFloat(1, 'g', -1, 64))
	fmt.Fprintf(&infer, "|%d,%d,%s", n["U1"], v["affiliation"], strconv.FormatFloat(2.5e-7, 'g', -1, 64))
	for _, key := range []string{
		fmt.Sprintf("t|%d|%d|%d|%d", s.gen, v["authorship"], v["affiliation"], n["A1"]),
		infer.String(),
	} {
		if _, ok := s.cache.get(key); !ok {
			t.Errorf("no cache entry under key %q", key)
		}
	}
}

// TestWriteJSONAllocFree pins writeJSON at zero allocations for every
// hot body once its pooled buffer has grown, the header included.
func TestWriteJSONAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) / 3
	}
	w := discardWriter{h: http.Header{}}
	for _, a := range hotBodies("node-42", "authorship", len(vec), vec) {
		var v any = a
		writeJSON(w, http.StatusOK, v)
		if n := testing.AllocsPerRun(100, func() { writeJSON(w, http.StatusOK, v) }); n != 0 {
			t.Errorf("writeJSON(%T) allocates %v times, want 0", a, n)
		}
	}
	if ct := w.h.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkWriteJSON measures writeJSON on each hot body at d=64 (knn:
// ten neighbours), the encode stage of a request.
func BenchmarkWriteJSON(b *testing.B) {
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = math.Sin(float64(i)) / 3
	}
	nbrs := make([]Neighbor, 10)
	for i := range nbrs {
		nbrs[i] = Neighbor{Node: "node-" + strconv.Itoa(i), Similarity: 1 - float64(i)/17}
	}
	for _, bc := range []struct {
		name string
		v    any
	}{
		{"embedding", EmbeddingResponse{Schema: ErrorSchema, Node: "node-1", Dim: 64, Embedding: vec}},
		{"translate", TranslateResponse{Schema: ErrorSchema, Node: "node-1", From: "authorship", To: "affiliation", Dim: 64, Embedding: vec}},
		{"knn", KNNResponse{Schema: ErrorSchema, Node: "node-1", K: len(nbrs), Neighbors: nbrs}},
		{"infer", InferResponse{Schema: ErrorSchema, Dim: 64, Embedding: vec}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeJSON(w, http.StatusOK, bc.v)
			}
		})
	}
}
