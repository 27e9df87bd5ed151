package ann

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzANNDecode feeds arbitrary bytes to Decode, as a corrupted
// snapshot's ANN section would. Decode must never panic, and an index
// it accepts must be safe to use: Search from every row returns only
// ids in range, and AppendTo gives bytes that Decode accepts again and
// re-encodes unchanged. The table has the row count the header names
// when that is at most 64, so mutations of the count still reach the
// structural checks. The committed corpus in
// testdata/fuzz/FuzzANNDecode holds a valid 20-node index and copies of
// it truncated in each part, bit-flipped and with the wrong format
// version in the magic.
func FuzzANNDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := 20
		if len(data) >= 40 {
			if n := binary.LittleEndian.Uint64(data[32:40]); n <= 64 {
				rows = int(n)
			}
		}
		table := RandomTable(rows, 3, 1)
		norms := Norms(table)
		ix, err := Decode(data, table, norms)
		if err != nil {
			return
		}
		for r := 0; r < rows; r++ {
			got, _, err := ix.Search(table.Row(r), norms[r], 3, 0)
			if err != nil {
				t.Fatalf("row %d: Search on an accepted index: %v", r, err)
			}
			for _, c := range got {
				if c.ID < 0 || c.ID >= rows {
					t.Fatalf("row %d: Search returned id %d outside [0,%d)", r, c.ID, rows)
				}
			}
		}
		enc := ix.AppendTo(nil)
		again, err := Decode(enc, table, norms)
		if err != nil {
			t.Fatalf("Decode rejected the re-encoded index: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), enc) {
			t.Fatal("re-encoding a decoded index changed its bytes")
		}
	})
}
