package rngstream

import "testing"

func TestDeriveDeterministic(t *testing.T) {
	if Derive(7, 1, 2) != Derive(7, 1, 2) {
		t.Fatal("Derive must be deterministic")
	}
	if New(7, 1, 2).Int63() != New(7, 1, 2).Int63() {
		t.Fatal("New must yield identical streams for identical labels")
	}
}

func TestDeriveLabelSensitivity(t *testing.T) {
	base := Derive(1, 0, 0)
	variants := []int64{
		Derive(1, 0, 1),
		Derive(1, 1, 0),
		Derive(2, 0, 0),
		Derive(1, 0),
		Derive(1),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d collides with base stream", i)
		}
	}
	if Derive(1, 1, 2) == Derive(1, 2, 1) {
		t.Fatal("label order must matter")
	}
	if Derive(5) == 5 {
		t.Fatal("Derive with no labels must still mix the seed")
	}
}

// TestStreamIndependence checks that streams derived from the same seed
// with adjacent labels behave like unrelated generators: over a long
// prefix they almost never agree position-wise, for every pair. This is
// the property the sharded trainer relies on (seed ⊕ view ⊕ shard).
func TestStreamIndependence(t *testing.T) {
	const n = 4096
	const streams = 6
	seqs := make([][]uint32, streams)
	for s := 0; s < streams; s++ {
		rng := New(1, int64(s/3), int64(s%3)) // labels (view, shard)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = rng.Uint32()
		}
		seqs[s] = seq
	}
	for a := 0; a < streams; a++ {
		for b := a + 1; b < streams; b++ {
			matches := 0
			for i := 0; i < n; i++ {
				if seqs[a][i] == seqs[b][i] {
					matches++
				}
			}
			// Position-wise 32-bit collisions should be essentially absent;
			// allow a microscopic tolerance.
			if matches > 2 {
				t.Fatalf("streams %d and %d agree at %d/%d positions", a, b, matches, n)
			}
		}
	}
}

// TestStreamBitBalance guards against a degenerate derivation (e.g. a
// label mixing bug zeroing high bits): each derived stream's first draws
// should have roughly balanced bits.
func TestStreamBitBalance(t *testing.T) {
	for label := int64(0); label < 8; label++ {
		rng := New(42, label)
		ones := 0
		const draws = 512
		for i := 0; i < draws; i++ {
			v := rng.Uint64()
			for ; v != 0; v &= v - 1 {
				ones++
			}
		}
		frac := float64(ones) / float64(draws*64)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("stream %d one-bit fraction %.3f not balanced", label, frac)
		}
	}
}

// TestSplitMix64Reference checks the stream against the published
// SplitMix64 outputs for seed 1234567 (the state is advanced by
// 0x9e3779b97f4a7c15 before each output is mixed).
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	s := NewSplitMix64(1234567)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("output %d = %d, reference %d", i, got, w)
		}
	}
}

// TestSplitMix64DistinctSeeds requires nearby seeds, as a shard's
// rand.Rand might hand out, to give unrelated streams: no two of them
// agree at any of the first 4096 positions.
func TestSplitMix64DistinctSeeds(t *testing.T) {
	const n = 4096
	seeds := []uint64{0, 1, 2, 0x5eed, 1 << 63, ^uint64(0)}
	seqs := make([][]uint64, len(seeds))
	for i, seed := range seeds {
		s := NewSplitMix64(seed)
		seqs[i] = make([]uint64, n)
		for k := range seqs[i] {
			seqs[i][k] = s.Uint64()
		}
	}
	for a := range seqs {
		for b := a + 1; b < len(seqs); b++ {
			for k := 0; k < n; k++ {
				if seqs[a][k] == seqs[b][k] {
					t.Fatalf("seeds %#x and %#x agree at output %d", seeds[a], seeds[b], k)
				}
			}
		}
	}
}
