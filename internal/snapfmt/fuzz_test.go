package snapfmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapOpen writes arbitrary bytes to a file and opens it, as a
// reload handed a corrupt model file would. Open must never panic, and
// every file it accepts must describe itself as a valid
// transn.snap.inspect/v1 document. With fixSum set the trailer is first
// rewritten to the body's checksum, so mutations get past §9 into the
// header and section decoders. The committed corpus in
// testdata/fuzz/FuzzSnapOpen holds the quickstart fixture, a copy
// carrying an ANN section as e2ebench packs it, and truncated,
// bit-flipped and wrong-version copies.
func FuzzSnapOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "model.snap")
	f.Fuzz(func(t *testing.T, data []byte, fixSum bool) {
		if fixSum && len(data) >= TrailerSize {
			data = bytes.Clone(data)
			body := data[:len(data)-TrailerSize]
			binary.LittleEndian.PutUint64(data[len(body):], Checksum(body))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, OpenOptions{})
		if err != nil {
			return
		}
		defer s.Close()
		doc, err := json.Marshal(s.Describe())
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateInspect(doc); err != nil {
			t.Fatalf("accepted file describes itself invalidly: %v\n%s", err, doc)
		}
	})
}
