package transn

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"transn/internal/mat"
	"transn/internal/obs"
)

// Golden suite: the determinism tests compare two runs of the same
// code, so only a pinned value catches a change that moves every run
// the same way (a new RNG stream layout, a reordered update, a kernel
// rewrite). The pinned hash is the FNV-64a of the embedding table's
// little-endian float64 bits, the same checksum e2ebench reports as
// embedding_fnv64.

// goldenEmbeddingFNV is the embedding checksum of quickCfg with
// Workers=2 on threeViewGraph(t, 10, 5, 51). A change that alters it changes the
// numbers every reproducible run produces; say so in CHANGES.md and
// re-pin.
const goldenEmbeddingFNV uint64 = 0xf1c5380e3b627c6c

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

// TestGoldenEmbeddings pins the embeddings of a two-worker run on a
// three-view graph, and checks the order of its single-view events:
// within each iteration, every non-empty view's walk event and then its
// skip-gram event, in ascending view order. The hash is pinned on amd64
// only: arm64 fuses multiply-adds, which changes the low bits.
func TestGoldenEmbeddings(t *testing.T) {
	g := threeViewGraph(t, 10, 5, 51)
	cfg := quickCfg()
	cfg.Workers = 2
	var events []obs.TrainEvent
	cfg.Observer = func(ev obs.TrainEvent) { events = append(events, ev) }
	m, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Views()); n < 3 {
		t.Fatalf("graph has %d views, want at least 3", n)
	}

	type viewEvent struct {
		stage obs.Stage
		view  int
	}
	var want []viewEvent
	for vi, v := range m.Views() {
		if v.NumNodes() > 0 {
			want = append(want, viewEvent{obs.StageWalk, vi}, viewEvent{obs.StageSkipGram, vi})
		}
	}
	got := make([][]viewEvent, cfg.Iterations)
	for _, ev := range events {
		if ev.Stage == obs.StageWalk || ev.Stage == obs.StageSkipGram {
			got[ev.Epoch] = append(got[ev.Epoch], viewEvent{ev.Stage, ev.View})
		}
	}
	for iter, seq := range got {
		if len(seq) != len(want) {
			t.Fatalf("iteration %d: %d single-view events %v, want %v", iter, len(seq), seq, want)
		}
		for i := range seq {
			if seq[i] != want[i] {
				t.Fatalf("iteration %d: single-view events %v, want %v", iter, seq, want)
			}
		}
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("embedding hash is pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	if sum := embeddingFNV(m.Embeddings()); sum != goldenEmbeddingFNV {
		t.Fatalf("embedding FNV-64a = %#016x, pinned %#016x", sum, goldenEmbeddingFNV)
	}
}
