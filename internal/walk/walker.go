package walk

import (
	"math/rand"

	"transn/internal/graph"
)

// A Walker produces one random walk of up to length steps starting at the
// given local node of a view. Returned indices are view-local. A walk may
// be shorter than length only when it starts at a node with no neighbors.
type Walker interface {
	Walk(v *graph.View, start, length int, rng *rand.Rand) []int
}

// A Preparer is a Walker with lazily-built per-node caches. Prepare
// builds every cache eagerly so the walker becomes read-only and can be
// shared by concurrent walks; CorpusParallel calls it before fanning
// out. Prepare is idempotent but is NOT itself safe for concurrent use.
type Preparer interface {
	Prepare()
}

// Simple performs unweighted uniform random walks, the "simple random
// walk" of the ablation TransN-With-Simple-Walk: edge weights are
// ignored and every neighbor is equally likely.
type Simple struct{}

// Walk implements Walker.
func (Simple) Walk(v *graph.View, start, length int, rng *rand.Rand) []int {
	path := make([]int, 0, length)
	path = append(path, start)
	cur := start
	for len(path) < length {
		ns, _ := v.Neighbors(cur)
		if len(ns) == 0 {
			break
		}
		cur = int(ns[rng.Intn(len(ns))])
		path = append(path, cur)
	}
	return path
}

// Biased performs weight-proportional walks: the probability of stepping
// to a neighbor is π₁ ∝ w(next, cur) (Equation 6). Alias tables are built
// lazily per node and cached, so construction cost is paid once per view.
type Biased struct {
	tables []*Alias // indexed by local node; nil until first visit
	view   *graph.View
}

// NewBiased returns a Biased walker bound to view v.
func NewBiased(v *graph.View) *Biased {
	return &Biased{tables: make([]*Alias, v.NumNodes()), view: v}
}

func (b *Biased) table(l int) *Alias {
	if b.tables[l] == nil {
		_, ws := b.view.Neighbors(l)
		b.tables[l] = NewAlias(ws)
	}
	return b.tables[l]
}

// Prepare implements Preparer: it builds the alias table of every
// non-isolated node so concurrent Walk calls only read.
func (b *Biased) Prepare() {
	for l := 0; l < b.view.NumNodes(); l++ {
		if ns, _ := b.view.Neighbors(l); len(ns) > 0 {
			b.table(l)
		}
	}
}

// Walk implements Walker.
func (b *Biased) Walk(v *graph.View, start, length int, rng *rand.Rand) []int {
	if v != b.view {
		panic("walk: Biased walker used on a different view")
	}
	path := make([]int, 0, length)
	path = append(path, start)
	cur := start
	for len(path) < length {
		ns, _ := v.Neighbors(cur)
		if len(ns) == 0 {
			break
		}
		cur = int(ns[b.table(cur).Draw(rng)])
		path = append(path, cur)
	}
	return path
}

// Correlated implements the paper's full walk control (Equations 4–7):
// steps are drawn ∝ π₁ on homo-views, on the first step, or when the
// current node's incident weights are all equal (Δ = 0); otherwise steps
// are drawn ∝ π₁·π₂ where π₂ = 1 − |w(next,cur) − w(cur,prev)|/Δ prefers
// edges whose weight is close to the previous edge's weight.
//
// Note on Equation 7: the paper's formula omits the absolute value,
// which would make π₂ *increase* as the next weight drops below the
// previous one — preferring maximally dissimilar edges whenever the walk
// arrived via a heavy edge. That contradicts both the prose ("more
// likely to choose an edge whose weight is close to the weight of the
// previous edge") and the Figure 4 walkthrough, so we implement the
// similarity kernel the prose describes. The two agree exactly in the
// Figure 4 case (arrival via the minimum-weight edge). See DESIGN.md §2.
type Correlated struct {
	biased *Biased
	// delta[l] caches Δ = max−min incident weight of local node l, or -1
	// when not yet computed.
	delta []float64
}

// NewCorrelated returns a Correlated walker bound to view v.
func NewCorrelated(v *graph.View) *Correlated {
	d := make([]float64, v.NumNodes())
	for i := range d {
		d[i] = -1
	}
	return &Correlated{biased: NewBiased(v), delta: d}
}

// Prepare implements Preparer: it builds every alias table and Δ cache
// so concurrent Walk calls only read.
func (c *Correlated) Prepare() {
	v := c.biased.view
	c.biased.Prepare()
	for l := 0; l < v.NumNodes(); l++ {
		if ns, _ := v.Neighbors(l); len(ns) > 0 {
			c.deltaOf(v, l)
		}
	}
}

func (c *Correlated) deltaOf(v *graph.View, l int) float64 {
	if c.delta[l] >= 0 {
		return c.delta[l]
	}
	_, ws := v.Neighbors(l)
	lo, hi := ws[0], ws[0]
	for _, w := range ws[1:] {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	c.delta[l] = hi - lo
	return c.delta[l]
}

// Walk implements Walker.
func (c *Correlated) Walk(v *graph.View, start, length int, rng *rand.Rand) []int {
	path, _ := c.AppendWalk(make([]int, 0, length), nil, v, start, length, rng)
	return path
}

// AppendWalk appends the walk Walk would return to dst, making the same
// rng draws, and returns the extended slice. probs is scratch for the
// π₁·π₂ steps; AppendWalk grows it when a node has more neighbors than
// it holds and returns it for reuse, so a caller that keeps both
// buffers walks without allocating.
func (c *Correlated) AppendWalk(dst []int, probs []float64, v *graph.View, start, length int, rng *rand.Rand) ([]int, []float64) {
	if v != c.biased.view {
		panic("walk: Correlated walker used on a different view")
	}
	n0 := len(dst)
	dst = append(dst, start)
	cur := start
	prevWeight := -1.0 // weight of edge (prev, cur); <0 on the first step
	for len(dst)-n0 < length {
		ns, ws := v.Neighbors(cur)
		if len(ns) == 0 {
			break
		}
		var next int
		var nextW float64
		delta := c.deltaOf(v, cur)
		if !v.Hetero || prevWeight < 0 || delta == 0 {
			// π₁ only (Equation 4, first case).
			i := c.biased.table(cur).Draw(rng)
			next, nextW = int(ns[i]), ws[i]
		} else {
			// π₁·π₂ (Equation 4, second case). Weights are recomputed per
			// step because π₂ depends on the previous edge.
			if cap(probs) < len(ns) {
				probs = make([]float64, len(ns))
			}
			probs = probs[:len(ns)]
			var total float64
			for i, w := range ws {
				diff := w - prevWeight
				if diff < 0 {
					diff = -diff
				}
				p2 := 1 - diff/delta
				if p2 < 0 {
					p2 = 0 // numeric safety; analytically p2 ∈ [0, 1]
				}
				probs[i] = w * p2
				total += probs[i]
			}
			if total == 0 {
				// Degenerate: all candidates maximally dissimilar. Fall
				// back to π₁ so the walk can continue.
				i := c.biased.table(cur).Draw(rng)
				next, nextW = int(ns[i]), ws[i]
			} else {
				x := rng.Float64() * total
				i := 0
				for ; i < len(probs)-1; i++ {
					x -= probs[i]
					if x <= 0 {
						break
					}
				}
				next, nextW = int(ns[i]), ws[i]
			}
		}
		prevWeight = nextW
		cur = next
		dst = append(dst, cur)
	}
	return dst, probs
}

// Node2Vec performs the (p, q)-biased second-order walks of Grover &
// Leskovec. p is the return parameter, q the in-out parameter.
type Node2Vec struct {
	P, Q float64
}

// Walk implements Walker.
func (n Node2Vec) Walk(v *graph.View, start, length int, rng *rand.Rand) []int {
	path := make([]int, 0, length)
	path = append(path, start)
	cur := start
	prev := -1
	for len(path) < length {
		ns, ws := v.Neighbors(cur)
		if len(ns) == 0 {
			break
		}
		var next int
		if prev < 0 {
			next = weightedPick(ns, ws, rng)
		} else {
			probs := make([]float64, len(ns))
			var total float64
			for i, nb := range ns {
				w := ws[i]
				switch {
				case int(nb) == prev:
					w /= n.P
				case v.EdgeWeight(int(nb), prev) > 0:
					// distance 1 from prev: unchanged
				default:
					w /= n.Q
				}
				probs[i] = w
				total += w
			}
			x := rng.Float64() * total
			i := 0
			for ; i < len(probs)-1; i++ {
				x -= probs[i]
				if x <= 0 {
					break
				}
			}
			next = int(ns[i])
		}
		prev = cur
		cur = next
		path = append(path, cur)
	}
	return path
}

func weightedPick(ns []int32, ws []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range ws {
		total += w
	}
	x := rng.Float64() * total
	i := 0
	for ; i < len(ws)-1; i++ {
		x -= ws[i]
		if x <= 0 {
			break
		}
	}
	return int(ns[i])
}
