package graph

import (
	"bytes"
	"testing"
)

// FuzzGraphLoad feeds arbitrary bytes to Load, which parses the network
// files every trainer and the server read. Load must never panic, and a
// graph it accepts must survive Store then Load: the second Store
// writes the first one's bytes exactly. The seed corpus is
// testdata/fuzz/FuzzGraphLoad; run the mutator with
// go test ./internal/graph -run '^$' -fuzz '^FuzzGraphLoad$' -fuzztime 10s.
func FuzzGraphLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Store(&first, g); err != nil {
			t.Fatalf("Store of an accepted graph: %v", err)
		}
		g2, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects what Store wrote: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Store(&second, g2); err != nil {
			t.Fatalf("second Store: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Store, Load, Store changed the file:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
