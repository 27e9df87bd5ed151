package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickstartRegeneratesFixture runs API.md's Quickstart train
// command and requires the committed serving fixture back byte for
// byte: the embeddings and the config section's flag bytes (SNAPSHOT.md
// §4) must reproduce from a plain `transn train`, which writes no ANN
// section.
func TestQuickstartRegeneratesFixture(t *testing.T) {
	const fixture = "../../internal/serve/testdata/quickstart"
	dir := t.TempDir()
	model := filepath.Join(dir, "quickstart.snap")
	defer func() { quiet = false }()
	err := cmdTrain([]string{
		"-input", fixture + ".tsv",
		"-output", filepath.Join(dir, "emb.tsv"), "-model", model,
		"-dim", "16", "-walklen", "8", "-workers", "1", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("regenerated fixture is %d bytes, committed %d", len(got), len(want))
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("regenerated fixture differs from the committed one at byte %d (%d, want %d)", i, got[i], want[i])
	}
}

// firstDiff returns the first index where equal-length a and b differ,
// or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
