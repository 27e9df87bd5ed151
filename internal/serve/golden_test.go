package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases are the requests whose response bodies are committed under
// testdata/golden/: every data endpoint plus one error envelope, served
// from the committed quickstart fixture. The bodies were written by
// json.MarshalIndent before the hot bodies got their own appenders, so
// they pin the wire bytes independently of the encoder under test.
var goldenCases = []struct {
	name, method, target, body string
	status                     int
	// decode returns a fresh value of the body's Go type, for the check
	// that the golden file is MarshalIndent's own rendering.
	decode func() any
}{
	{"embedding", "GET", "/v1/embedding?node=A1", "", 200, func() any { return new(EmbeddingResponse) }},
	{"embedding_view", "GET", "/v1/embedding?node=A1&view=authorship", "", 200, func() any { return new(EmbeddingResponse) }},
	{"translate", "GET", "/v1/translate?node=A1&from=authorship&to=affiliation", "", 200, func() any { return new(TranslateResponse) }},
	{"knn", "GET", "/v1/knn?node=A1&k=3", "", 200, func() any { return new(KNNResponse) }},
	{"knn_exact", "GET", "/v1/knn?node=A1&k=3&exact=true", "", 200, func() any { return new(KNNResponse) }},
	{"infer", "POST", "/v1/infer", `{"edges":[{"neighbor":"P1","type":"authorship"},{"neighbor":"U1","type":"affiliation","weight":2}]}`, 200, func() any { return new(InferResponse) }},
	{"error_unknown_node", "GET", "/v1/embedding?node=NOPE", "", 404, func() any { return new(ErrorEnvelope) }},
}

// TestGoldenResponseBodies serves each golden request from the committed
// fixture and requires the body to equal the committed bytes exactly.
// It also re-encodes each decoded golden with json.MarshalIndent and
// requires the same bytes back, so a golden file that drifted from
// MarshalIndent's layout fails here rather than passing as a new oracle.
func TestGoldenResponseBodies(t *testing.T) {
	sv, err := New(Config{
		GraphPath: filepath.Join("testdata", "quickstart.tsv"),
		ModelPath: filepath.Join("testdata", "quickstart.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Shutdown()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			v := tc.decode()
			if err := json.Unmarshal(want, v); err != nil {
				t.Fatalf("decoding golden: %v", err)
			}
			oracle, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(oracle, '\n'), want) {
				t.Fatalf("golden file is not json.MarshalIndent's rendering of its own value")
			}

			r := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
			r.Header.Set(HeaderRequestID, "golden-"+tc.name)
			w := httptest.NewRecorder()
			sv.Handler().ServeHTTP(w, r)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.Bytes())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("body differs from golden at byte %d\n got: %s\nwant: %s", i, got, want)
			}
		})
	}
}
