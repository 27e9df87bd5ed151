package skipgram

import (
	"container/heap"
	"math"
	"math/rand"

	"transn/internal/mat"
)

// HSoftmax is the hierarchical-softmax estimator of the skip-gram
// objective: a Huffman tree over node frequencies where each leaf is a
// node and each internal vertex owns a trainable vector. Predicting a
// context costs O(log₂ μ), which is the term that appears in Theorem 1's
// complexity bound.
type HSoftmax struct {
	// codes[n] is the Huffman code of leaf n (false = left).
	codes [][]bool
	// points[n] lists the internal-vertex indices on the root→leaf path.
	points [][]int32
	// Vec holds one row per internal vertex.
	Vec *mat.Dense
}

type huffNode struct {
	freq        float64
	left, right int // child indices into the node arena, -1 for leaves
	leaf        int // leaf id or -1
}

type huffHeap struct {
	arena *[]huffNode
	idx   []int
}

func (h huffHeap) Len() int { return len(h.idx) }
func (h huffHeap) Less(i, j int) bool {
	return (*h.arena)[h.idx[i]].freq < (*h.arena)[h.idx[j]].freq
}
func (h huffHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *huffHeap) Push(x any)   { h.idx = append(h.idx, x.(int)) }
func (h *huffHeap) Pop() any {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// NewHSoftmax builds the Huffman tree for the given frequencies and
// allocates internal-vertex vectors of dimension dim.
func NewHSoftmax(freq []float64, dim int, rng *rand.Rand) *HSoftmax {
	n := len(freq)
	if n < 2 {
		panic("skipgram: hierarchical softmax needs at least 2 nodes")
	}
	arena := make([]huffNode, 0, 2*n-1)
	hh := &huffHeap{arena: &arena}
	for i, f := range freq {
		if f <= 0 {
			f = 1e-3
		}
		arena = append(arena, huffNode{freq: f, left: -1, right: -1, leaf: i})
		hh.idx = append(hh.idx, i)
	}
	heap.Init(hh)
	for hh.Len() > 1 {
		a := heap.Pop(hh).(int)
		b := heap.Pop(hh).(int)
		arena = append(arena, huffNode{freq: arena[a].freq + arena[b].freq, left: a, right: b, leaf: -1})
		heap.Push(hh, len(arena)-1)
	}
	root := hh.idx[0]

	hs := &HSoftmax{
		codes:  make([][]bool, n),
		points: make([][]int32, n),
	}
	// Internal vertices get dense indices in arena order past the leaves.
	internalIdx := func(arenaIdx int) int32 { return int32(arenaIdx - n) }
	// DFS assigning codes.
	type frame struct {
		node   int
		code   []bool
		points []int32
	}
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := arena[f.node]
		if nd.leaf >= 0 {
			hs.codes[nd.leaf] = f.code
			hs.points[nd.leaf] = f.points
			continue
		}
		pts := append(append([]int32(nil), f.points...), internalIdx(f.node))
		stack = append(stack,
			frame{node: nd.left, code: append(append([]bool(nil), f.code...), false), points: pts},
			frame{node: nd.right, code: append(append([]bool(nil), f.code...), true), points: pts},
		)
	}
	hs.Vec = mat.New(len(arena)-n, dim)
	return hs
}

// CodeLen returns the Huffman code length of leaf n (≈ log₂ of its
// inverse frequency).
func (h *HSoftmax) CodeLen(n int) int { return len(h.codes[n]) }

// trainPair applies one hierarchical-softmax update for (center, context)
// on model m and returns the loss. Only m.In and h.Vec are touched. grad
// is a caller-owned d-length buffer, cleared here; TrainCorpus reuses one
// for the whole pass.
//
//lint:finite-checked sigmoid/log are clamped here and the trainer's per-iteration guard (transn/finite.go) sweeps losses and sampled rows
func (h *HSoftmax) trainPair(m *Model, center, context int, lr float64, grad []float64) float64 {
	in := m.In.Row(center)
	clear(grad)
	var loss float64
	code := h.codes[context]
	points := h.points[context]
	for i, bit := range code {
		out := h.Vec.Row(int(points[i]))
		score := tableSigmoid(mat.Dot(in, out))
		label := 0.0
		if bit {
			label = 1
		}
		p := score
		if !bit {
			p = 1 - score
		}
		if p < 1e-10 {
			p = 1e-10
		}
		loss += -math.Log(p)
		g := (score - label) * lr
		mat.Axpy(g, out, grad)
		mat.Axpy(-g, in, out)
	}
	mat.Axpy(-1, grad, in)
	return loss
}

// TrainCorpus runs one hierarchical-softmax pass over the corpus and
// returns mean pair loss. Self-pairs are skipped, as in the negative
// sampling pass (see trainCorpus).
func (h *HSoftmax) TrainCorpus(m *Model, paths [][]int, offsets []int, lr float64) float64 {
	grad := make([]float64, m.In.C)
	var loss float64
	var pairs int
	for _, p := range paths {
		for k, center := range p {
			for _, d := range offsets {
				j := k + d
				if j < 0 || j >= len(p) || p[j] == center {
					continue
				}
				loss += h.trainPair(m, center, p[j], lr, grad)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return loss / float64(pairs)
}
