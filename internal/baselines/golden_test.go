package baselines_test

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"transn/internal/baselines"
	"transn/internal/baselines/line"
	"transn/internal/baselines/node2vec"
	"transn/internal/mat"
)

// embeddingFNV is the FNV-64a of a table's little-endian float64 bits,
// the checksum TransN's own golden test and e2ebench use.
func embeddingFNV(m *mat.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.Data {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenBaselineEmbeddings pins the seed-1 output of the two
// baselines that train through the skip-gram kernel: node2vec through
// TrainCorpus (and the alias-sampled walks and negatives), LINE through
// TrainPair (and the alias-sampled edges). The determinism tests compare
// two runs of the same code, so only a pinned value catches a change
// that moves every run the same way. A change that alters a hash changes
// the baseline numbers every reproducible table prints; say so in
// CHANGES.md and re-pin. The hashes are pinned on amd64 only: arm64
// fuses multiply-adds, which changes the low bits.
func TestGoldenBaselineEmbeddings(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("baseline hashes are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	g := communityGraph(t, 1)
	for _, c := range []struct {
		name string
		m    baselines.Method
		want uint64
	}{
		{"DeepWalk", node2vec.Method{P: 1, Q: 1, NumWalks: 6, WalkLength: 20}, 0xe6f33af240ccab89},
		{"Node2Vec", node2vec.Method{P: 0.5, Q: 2, NumWalks: 6, WalkLength: 20}, 0x5a4c4bc9c666c95f},
		{"LINE", line.Method{SamplesPerEdge: 30}, 0x9f23ee5028b08bcc},
	} {
		emb, err := c.m.Embed(g, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sum := embeddingFNV(emb); sum != c.want {
			t.Errorf("%s: embedding FNV-64a = %#016x, pinned %#016x", c.name, sum, c.want)
		}
	}
}
