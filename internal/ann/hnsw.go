package ann

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"transn/internal/mat"
	"transn/internal/rngstream"
)

// Default construction and search parameters, used wherever a Config
// field is left zero. They follow the HNSW paper's recommended ranges,
// sized for the dim≈100, N≤10^6 tables TransN serves.
const (
	DefaultM              = 16
	DefaultEfConstruction = 200
	DefaultEfSearch       = 64
	// MaxEf caps a caller-supplied ef so one request cannot turn a
	// search back into a full scan of a huge table.
	MaxEf = 4096
	// maxLevelCap bounds the level assignment; with mL = 1/ln(M) the
	// probability of exceeding it is below 2^-64 for any sane M.
	maxLevelCap = 30
	// levelStream namespaces the per-node level draws within the
	// snapshot's rngstream seed space.
	levelStream = 0x616e6e // "ann"
)

// Config holds HNSW build and search parameters. The zero value means
// "all defaults"; withDefaults resolves it.
type Config struct {
	// M is the target neighbor count per node on layers above 0;
	// layer 0 keeps up to 2M. Larger M improves recall and costs
	// memory and build time.
	M int
	// EfConstruction is the beam width used while inserting nodes.
	EfConstruction int
	// EfSearch is the default beam width for Search when the caller
	// passes ef <= 0.
	EfSearch int
	// Seed feeds rngstream.Derive for the per-node level draws. The
	// same (table, Config) always builds the same index.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = DefaultM
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.EfConstruction < c.M {
		c.EfConstruction = c.M
	}
	if c.EfSearch <= 0 {
		c.EfSearch = DefaultEfSearch
	}
	return c
}

// Candidate is one search result: a row id of the indexed table and
// its cosine similarity to the query.
type Candidate struct {
	ID  int
	Sim float64
}

// Index is an immutable HNSW graph over the rows of a table. Build it
// once (or Decode a serialized one) and search from any number of
// goroutines; see the package doc for the full invariant set.
type Index struct {
	cfg    Config
	table  *mat.Dense
	norms  []float64
	levels []uint8
	// layers[l].adj[i] lists i's neighbors on layer l (nil above i's
	// level). Frozen after Build/Decode.
	layers   []layer
	entry    int32
	maxLevel int
	scratch  sync.Pool
}

type layer struct {
	adj [][]int32
}

// item orders candidates by (distance, id): ids break distance ties so
// the search pool and every sort below follow one total deterministic
// order. Build rejects non-finite norms, so no distance is NaN.
type item struct {
	dist float64
	id   int32
	// expanded marks a searchLayer pool item whose neighbors have
	// been scored.
	expanded bool
}

func lessItem(a, b item) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// Norms returns the L2 norm of every row of table, the form Build and
// Decode expect. Callers that already track norms (the serving
// snapshot does) can pass their own slice instead.
func Norms(table *mat.Dense) []float64 {
	norms := make([]float64, table.R)
	for i := range norms {
		norms[i] = mat.Norm2(table.Row(i))
	}
	return norms
}

// Build constructs an index over the rows of table. norms must hold
// the L2 norm of each row (see Norms); nil means "compute them here".
// The table and norms are retained and read, never written, so both
// may alias read-only mmap'd memory. A non-finite norm is an error,
// so every distance is a number. Construction is deterministic:
// levels come from cfg.Seed and the row id alone, and insertion order
// is the row order.
func Build(table *mat.Dense, norms []float64, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if table == nil || table.R == 0 || table.C == 0 {
		return nil, fmt.Errorf("ann: empty table")
	}
	if table.R > math.MaxInt32 {
		return nil, fmt.Errorf("ann: table has %d rows; ids are int32", table.R)
	}
	if norms == nil {
		norms = Norms(table)
	}
	if len(norms) != table.R {
		return nil, fmt.Errorf("ann: %d norms for %d rows", len(norms), table.R)
	}
	for i, n := range norms {
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return nil, fmt.Errorf("ann: row %d has norm %v; rows must be finite", i, n)
		}
	}
	ix := &Index{cfg: cfg, table: table, norms: norms, entry: -1}
	ix.levels = make([]uint8, table.R)
	mL := 1 / math.Log(float64(cfg.M))
	for i := range ix.levels {
		ix.levels[i] = drawLevel(cfg.Seed, int64(i), mL)
	}
	sc := newScratch(table.R, cfg.M)
	for i := 0; i < table.R; i++ {
		ix.insert(int32(i), sc)
	}
	ix.initPool()
	return ix, nil
}

// drawLevel maps a deterministic uniform draw for node id to an HNSW
// level via the standard floor(-ln(u)·mL) transform, capped so a
// pathological draw cannot blow up the layer array.
func drawLevel(seed, id int64, mL float64) uint8 {
	v := uint64(rngstream.Derive(seed, levelStream, id))
	// 53 high bits → uniform in (0,1]; the +1 keeps u strictly
	// positive so the log is finite.
	u := float64(v>>11+1) / float64(1<<53)
	l := int(-math.Log(u) * mL)
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return uint8(l)
}

func (ix *Index) initPool() {
	n, m := ix.table.R, ix.cfg.M
	ix.scratch.New = func() any { return newScratch(n, m) }
}

func (ix *Index) maxNeighbors(level int) int {
	if level == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// dist is 1 − cosine similarity, with the same zero-norm convention as
// the serving layer's exact scan: a zero-norm side has similarity 0,
// i.e. distance 1 to everything.
func (ix *Index) dist(q []float64, qn float64, id int32) float64 {
	n := ix.norms[id]
	if qn == 0 || n == 0 {
		return 1
	}
	return 1 - mat.Dot(q, ix.table.Row(int(id)))/(qn*n)
}

func (ix *Index) insert(id int32, sc *scratch) {
	level := int(ix.levels[id])
	for len(ix.layers) <= level {
		ix.layers = append(ix.layers, layer{adj: make([][]int32, ix.table.R)})
	}
	if ix.entry < 0 {
		ix.entry = id
		ix.maxLevel = level
		return
	}
	q := ix.table.Row(int(id))
	qn := ix.norms[id]
	eps := sc.eps[:0]
	eps = append(eps, ix.entry)
	for l := ix.maxLevel; l > level; l-- {
		w := ix.searchLayer(q, qn, eps, 1, l, sc)
		eps = append(eps[:0], w[0].id)
	}
	top := level
	if ix.maxLevel < top {
		top = ix.maxLevel
	}
	for l := top; l >= 0; l-- {
		w := ix.searchLayer(q, qn, eps, ix.cfg.EfConstruction, l, sc)
		adj := ix.layers[l].adj
		// Copy out of the shared scratch: shrink below re-selects into
		// the same sc.sel buffer the heuristic returned.
		adj[id] = append([]int32(nil), ix.selectNeighbors(w, ix.cfg.M, sc)...)
		limit := ix.maxNeighbors(l)
		for _, nb := range adj[id] {
			adj[nb] = append(adj[nb], id)
			if len(adj[nb]) > limit {
				adj[nb] = ix.shrink(nb, adj[nb], limit, sc)
			}
		}
		eps = eps[:0]
		for _, it := range w {
			eps = append(eps, it.id)
		}
		sc.eps = eps[:0]
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = id
	}
}

// selectNeighbors is the paper's heuristic (Alg. 4, no extensions): it
// walks candidates in (dist, id) order and keeps one only if it is
// closer to the query than to every neighbor already kept, which
// spreads links across clusters. It may return fewer than m.
func (ix *Index) selectNeighbors(w []item, m int, sc *scratch) []int32 {
	out := sc.sel[:0]
	for _, c := range w {
		if len(out) >= m {
			break
		}
		keep := true
		for _, s := range out {
			if ix.distBetween(c.id, s) < c.dist {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c.id)
		}
	}
	sc.sel = out
	return out
}

func (ix *Index) distBetween(a, b int32) float64 {
	return ix.dist(ix.table.Row(int(a)), ix.norms[a], b)
}

// shrink re-selects nb's neighbor list after an insertion pushed it
// past limit, using the same heuristic as initial selection.
func (ix *Index) shrink(nb int32, adj []int32, limit int, sc *scratch) []int32 {
	cands := sc.shrink[:0]
	q := ix.table.Row(int(nb))
	qn := ix.norms[nb]
	for _, x := range adj {
		cands, _ = insertItem(cands, item{dist: ix.dist(q, qn, x), id: x}, len(adj))
	}
	sc.shrink = cands
	kept := ix.selectNeighbors(cands, limit, sc)
	return append(adj[:0], kept...)
}

// Search returns up to k candidates nearest q under cosine similarity,
// ordered by (similarity desc, id asc), along with the number of
// distance evaluations spent. qn is q's L2 norm; ef <= 0 means the
// index's configured EfSearch, and any ef is clamped to [k, MaxEf].
// The query row itself is returned like any other row — callers
// looking up a stored row filter it out.
func (ix *Index) Search(q []float64, qn float64, k, ef int) ([]Candidate, int, error) {
	if len(q) != ix.table.C {
		return nil, 0, fmt.Errorf("ann: query dim %d != table dim %d", len(q), ix.table.C)
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	if ef < k {
		ef = k
	}
	if ef > MaxEf {
		ef = MaxEf
	}
	sc := ix.scratch.Get().(*scratch)
	sc.distEvals = 0
	eps := sc.eps[:0]
	eps = append(eps, ix.entry)
	for l := ix.maxLevel; l > 0; l-- {
		w := ix.searchLayer(q, qn, eps, 1, l, sc)
		eps = append(eps[:0], w[0].id)
	}
	w := ix.searchLayer(q, qn, eps, ef, 0, sc)
	sc.eps = eps[:0]
	if len(w) > k {
		w = w[:k]
	}
	out := make([]Candidate, len(w))
	for i, it := range w {
		out[i] = Candidate{ID: int(it.id), Sim: 1 - it.dist}
	}
	evals := sc.distEvals
	ix.scratch.Put(sc)
	return out, evals, nil
}

// searchLayer is the HNSW beam search on one layer (the paper's
// Alg. 2) over one pool of candidates sorted by (dist, id), the search
// pool of NSG (Fu et al., arXiv:1707.00143). The pool holds at most ef
// items, or the entry points if they are more. Each step expands the
// first unexpanded item: it scores the item's unvisited neighbors with
// one mat.DotRows call and inserts each, in adjacency order, that the
// pool has room for or that beats its last item, which it then drops.
// The search ends when every item is expanded and returns the pool, so
// the result is already sorted by (dist, id) ascending.
//
// This expands the same nodes in the same order as the two-heap form
// of the paper, with the same distance evaluations: every candidate
// that form queues also enters its results, and one evicted from the
// results is worse than every kept one, so it would end the search on
// reaching the top of the queue. Its live candidates are therefore the
// pool's unexpanded items. TestSearchLayerMatchesHeapReference pins
// the equivalence.
func (ix *Index) searchLayer(q []float64, qn float64, eps []int32, ef, l int, sc *scratch) []item {
	sc.epoch++
	if sc.epoch <= 0 { // wrapped: stale marks could collide
		clear(sc.visited)
		sc.epoch = 1
	}
	pool := sc.pool[:0]
	for _, ep := range eps {
		if sc.visited[ep] == sc.epoch {
			continue
		}
		sc.visited[ep] = sc.epoch
		sc.distEvals++
		pool, _ = insertItem(pool, item{dist: ix.dist(q, qn, ep), id: ep}, len(pool)+1)
	}
	adj := ix.layers[l].adj
	// Every item before cur is expanded.
	for cur := 0; ; {
		for cur < len(pool) && pool[cur].expanded {
			cur++
		}
		if cur == len(pool) {
			break
		}
		pool[cur].expanded = true
		ids := sc.ids[:0]
		for _, nb := range adj[pool[cur].id] {
			if sc.visited[nb] != sc.epoch {
				sc.visited[nb] = sc.epoch
				ids = append(ids, int(nb))
			}
		}
		sc.ids = ids
		sc.distEvals += len(ids)
		for j, d := range ix.dists(q, qn, ids, sc) {
			var at int
			pool, at = insertItem(pool, item{dist: d, id: int32(ids[j])}, ef)
			if at < cur {
				cur = at
			}
		}
	}
	sc.pool = pool
	return pool
}

// insertItem inserts it into the sorted pool at its (dist, id) rank and
// returns the pool and that rank. A pool of limit or more items drops
// its last item to make room, or, when it is not less than the last
// item, leaves the pool as it is and returns len(pool).
func insertItem(pool []item, it item, limit int) ([]item, int) {
	n := len(pool)
	if n >= limit {
		if !lessItem(it, pool[n-1]) {
			return pool, n
		}
	} else {
		pool = append(pool, item{})
	}
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lessItem(pool[m], it) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	copy(pool[lo+1:], pool[lo:len(pool)-1])
	pool[lo] = it
	return pool, lo
}

// dists returns dist(q, qn, id) for every id in ids, bit for bit: one
// mat.DotRows call gives Dot's bits for every row, and the zero-norm
// rule and 1 − dot/(qn·n) follow per row.
func (ix *Index) dists(q []float64, qn float64, ids []int, sc *scratch) []float64 {
	out := slices.Grow(sc.dots[:0], len(ids))[:len(ids)]
	sc.dots = out
	if qn != 0 {
		mat.DotRows(q, ix.table, ids, out)
	}
	for j, id := range ids {
		if n := ix.norms[id]; qn == 0 || n == 0 {
			out[j] = 1
		} else {
			out[j] = 1 - out[j]/(qn*n)
		}
	}
	return out
}

// scratch holds one search's working state; a sync.Pool recycles them
// so steady-state Search does not allocate per call. Only visited
// grows with the table; ids and dots hold one node's neighbors, so
// they start at the largest degree, 2·M.
type scratch struct {
	visited   []int32
	epoch     int32
	pool      []item // sorted by (dist, id)
	ids       []int
	dots      []float64
	eps       []int32
	sel       []int32
	shrink    []item
	distEvals int
}

func newScratch(n, m int) *scratch {
	return &scratch{visited: make([]int32, n), ids: make([]int, 0, 2*m), dots: make([]float64, 0, 2*m)}
}

// Stats summarizes an index for inspection and logging.
type Stats struct {
	// Nodes is the number of indexed rows.
	Nodes int `json:"nodes"`
	// Dim is the embedding dimension.
	Dim int `json:"dim"`
	// M and EfConstruction echo the build configuration.
	M              int `json:"m"`
	EfConstruction int `json:"ef_construction"`
	// Seed is the level-draw seed the index was built from.
	Seed int64 `json:"seed"`
	// MaxLevel is the highest occupied layer.
	MaxLevel int `json:"max_level"`
	// Edges is the total directed edge count across all layers.
	Edges int `json:"edges"`
	// Entry is the entry-point node id.
	Entry int `json:"entry"`
}

// Stats returns the index summary.
func (ix *Index) Stats() Stats {
	st := Stats{
		Nodes:          ix.table.R,
		Dim:            ix.table.C,
		M:              ix.cfg.M,
		EfConstruction: ix.cfg.EfConstruction,
		Seed:           ix.cfg.Seed,
		MaxLevel:       ix.maxLevel,
		Entry:          int(ix.entry),
	}
	for _, l := range ix.layers {
		for _, a := range l.adj {
			st.Edges += len(a)
		}
	}
	return st
}
