package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleDoc() *Document {
	return &Document{
		Schema:   Schema,
		Name:     "test",
		Packages: 3,
		Findings: []Finding{
			{Analyzer: "determinism", Code: CodeMapOrder, File: "b.go", Line: 10, Col: 2, Message: "m"},
			{Analyzer: "determinism", Code: CodeGlobalRand, File: "a.go", Line: 5, Col: 9, Message: "m"},
			{Analyzer: "lock-order", Code: CodeLockRawAtomic, File: "a.go", Line: 5, Col: 2, Message: "m"},
		},
	}
}

func TestFinalizeSortsAndSetsClean(t *testing.T) {
	d := sampleDoc()
	d.Finalize()
	if d.Clean {
		t.Errorf("Clean = true with %d findings", len(d.Findings))
	}
	wantOrder := []string{"a.go:5:2", "a.go:5:9", "b.go:10:2"}
	for i, f := range d.Findings {
		got := strings.SplitN(f.String(), ":", 4)
		if key := strings.Join(got[:3], ":"); key != wantOrder[i] {
			t.Errorf("finding %d at %s, want %s", i, key, wantOrder[i])
		}
	}
	empty := &Document{Schema: Schema, Name: "empty"}
	empty.Finalize()
	if !empty.Clean {
		t.Errorf("Clean = false with no findings")
	}
}

func TestErr(t *testing.T) {
	d := sampleDoc()
	d.Finalize()
	err := d.Err()
	if err == nil {
		t.Fatalf("Err = nil with findings")
	}
	if !strings.Contains(err.Error(), "3 finding(s)") || !strings.Contains(err.Error(), "a.go:5:2") {
		t.Errorf("Err = %q, want count and first finding position", err)
	}
	if (&Document{}).Err() != nil {
		t.Errorf("Err != nil for empty document")
	}
}

func TestWriteValidateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleDoc()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Errorf("document does not end in a newline")
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Errorf("Validate rejects Write's own output: %v", err)
	}

	var clean bytes.Buffer
	if err := Write(&clean, &Document{Schema: Schema, Name: "clean", Packages: 1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Validate(clean.Bytes()); err != nil {
		t.Errorf("Validate rejects a clean document: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() map[string]any {
		return map[string]any{
			"schema":   Schema,
			"name":     "test",
			"clean":    true,
			"packages": 2,
			"findings": []any{},
		}
	}
	cases := []struct {
		name   string
		mutate func(m map[string]any)
		want   string
	}{
		{"not json", nil, "not valid JSON"},
		{"wrong schema", func(m map[string]any) { m["schema"] = "transn.lint/v999" }, "schema"},
		{"missing name", func(m map[string]any) { delete(m, "name") }, "missing required field"},
		{"empty name", func(m map[string]any) { m["name"] = "" }, "name is empty"},
		{"negative packages", func(m map[string]any) { m["packages"] = -1 }, "negative"},
		{"clean contradiction", func(m map[string]any) {
			m["findings"] = []any{map[string]any{
				"analyzer": "a", "code": "c.d", "file": "f.go", "line": 1, "col": 1, "message": "m",
			}}
		}, "contradicts"},
		{"finding without code", func(m map[string]any) {
			m["clean"] = false
			m["findings"] = []any{map[string]any{
				"analyzer": "a", "code": "", "file": "f.go", "line": 1, "col": 1, "message": "m",
			}}
		}, "empty code"},
		{"finding without position", func(m map[string]any) {
			m["clean"] = false
			m["findings"] = []any{map[string]any{
				"analyzer": "a", "code": "c.d", "file": "", "line": 0, "col": 0, "message": "m",
			}}
		}, "no position"},
		{"negative analyzers", func(m map[string]any) { m["analyzers"] = -3 }, "analyzers is negative"},
		{"non-numeric analyzers", func(m map[string]any) { m["analyzers"] = "nine" }, "analyzers"},
		{"negative elapsed", func(m map[string]any) { m["elapsed_ms"] = -1 }, "elapsed_ms is negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte("{")
			if tc.mutate != nil {
				m := base()
				tc.mutate(m)
				var err error
				data, err = json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
			}
			err := Validate(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateAllowsUnknownFields(t *testing.T) {
	doc := `{"schema":"transn.lint/v1","name":"x","clean":true,"packages":1,"findings":[],"future":"field"}`
	if err := Validate([]byte(doc)); err != nil {
		t.Errorf("Validate rejects appended field: %v", err)
	}
}

// TestRunRecordsSuiteHeader pins the analyzer-count and runtime fields
// Run stamps into the report header: the suite-growth trail future PRs
// read (and the CI transnlint job asserts on). Validate must accept the
// populated header, and the JSON field names are part of the schema.
func TestRunRecordsSuiteHeader(t *testing.T) {
	m, err := Load("testdata/suppress", "fixture")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	doc := Run(m, Options{
		DeterminismPkgs: []string{"fixture/core"},
		MapOrderPkgs:    []string{"fixture/core"},
	}, Analyzers(), "header")
	if doc.Analyzers != len(Analyzers()) {
		t.Errorf("doc.Analyzers = %d, want %d (the full suite)", doc.Analyzers, len(Analyzers()))
	}
	if doc.ElapsedMS < 0 {
		t.Errorf("doc.ElapsedMS = %d, want >= 0", doc.ElapsedMS)
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Errorf("Validate rejects a document with the suite header: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["analyzers"]; !ok {
		t.Errorf("report JSON is missing the analyzers field")
	}
	// elapsed_ms is omitempty, so a sub-millisecond run may drop it —
	// only the name is pinned, via the negative-value rejection above.
}
