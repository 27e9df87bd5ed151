package serve

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// snapshot is one immutable generation of serving state: a frozen model
// plus every index derived from it (name lookups, k-NN norms) and the
// table of translated rows filled in as requests ask for them.
// Handlers grab the current snapshot pointer once per request and
// work against it for the whole request, so a concurrent hot reload
// never changes state mid-request — the old snapshot stays valid until
// its last in-flight request finishes, then the garbage collector
// reclaims it, row table and (for file loads) mmap included.
type snapshot struct {
	frozen *transn.Frozen
	gen    uint64

	// nodeByName maps node names to IDs. Duplicate names resolve to the
	// lowest ID, deterministically.
	nodeByName map[string]graph.NodeID
	// viewByName maps edge-type (view) names to view indices.
	viewByName map[string]int
	// viewNames is the inverse: view index → edge-type name.
	viewNames []string
	// norms[i] is the L2 norm of final embedding row i, precomputed for
	// cosine k-NN.
	norms []float64
	// snapf keeps a .snap file's mapping alive for as long as this
	// snapshot is reachable; the frozen tables may alias it. A
	// finalizer closes it when the GC reclaims the snapshot, so the
	// last in-flight request on a retired generation can never observe
	// an unmapped table. Nil only for snapshots built in memory.
	snapf *snapfmt.Snapshot

	// rows[p][side] holds T_{from→to} of trained pair p for every node
	// of the source view, indexed by the node's local index there: side
	// 0 translates view I into view J, side 1 translates J into I. A
	// translation is a pure function of (pair, direction, node) on a
	// frozen model, so a slot is filled once, on its first request, and
	// never evicted; a nil slot has not been asked for yet. Memory is
	// bounded by the model: (|V_I|+|V_J|)·d floats per pair at most.
	rows [][2][]atomic.Pointer[[]float64]
}

// loadSnapshot builds a serving snapshot of the given generation from
// the graph TSV and the transn.snap/v1 model file: O(header) validation
// + decode, float tables aliased straight out of the read-only mapping
// (no re-materialization). An ANN section in the file is ignored.
func (sv *Server) loadSnapshot(gen uint64) (*snapshot, error) {
	gf, err := os.Open(sv.cfg.GraphPath)
	if err != nil {
		return nil, fmt.Errorf("serve: opening graph: %w", err)
	}
	defer gf.Close()
	g, err := graph.Load(gf)
	if err != nil {
		return nil, fmt.Errorf("serve: loading graph: %w", err)
	}
	sp := sv.run.Trace.Start(obs.SpanSnapLoad)
	snapf, err := snapfmt.Open(sv.cfg.ModelPath, snapfmt.OpenOptions{})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("serve: opening snapshot: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			snapf.Close()
		}
	}()
	m, err := snapf.Model(g)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// FreezeWithFinal reuses the stored (possibly mmap-aliased) final
	// table: a .snap is finite by construction (SNAPSHOT.md §1), so no
	// sweep and no re-averaging — this is what keeps reload allocation
	// bounded regardless of model size.
	f, err := m.FreezeWithFinal(snapf.Final())
	if err != nil {
		return nil, fmt.Errorf("serve: freezing snapshot model: %w", err)
	}
	s := newSnapshot(f, gen)
	s.snapf = snapf
	// The mapping must outlive every aliased table; tie Close to the
	// snapshot's own lifetime. The finalizer closure must not capture s
	// (that would keep it reachable forever) — it receives the dying
	// object as its argument.
	runtime.SetFinalizer(s, func(old *snapshot) { old.snapf.Close() })
	sv.snapLoads.Add(1)
	if snapf.Mapped() {
		sv.snapMapped.Set(float64(snapf.SizeBytes()))
	} else {
		sv.snapMapped.Set(0)
	}
	ok = true
	return s, nil
}

// buildSnapshot freezes an in-memory model and derives the serving
// indexes. Split out so tests can serve freshly trained models without
// a round-trip through disk.
func buildSnapshot(m *transn.Model, gen uint64) (*snapshot, error) {
	f, err := m.Freeze()
	if err != nil {
		return nil, fmt.Errorf("serve: freezing model: %w", err)
	}
	return newSnapshot(f, gen), nil
}

// newSnapshot derives the name maps, norms and empty row table every
// snapshot needs, whether the model came from a file or from memory.
func newSnapshot(f *transn.Frozen, gen uint64) *snapshot {
	g := f.Graph()
	views := f.Views()
	s := &snapshot{
		frozen:     f,
		gen:        gen,
		nodeByName: make(map[string]graph.NodeID, g.NumNodes()),
		viewByName: map[string]int{},
		rows:       make([][2][]atomic.Pointer[[]float64], len(f.ViewPairs())),
	}
	for p, pr := range f.ViewPairs() {
		s.rows[p][0] = make([]atomic.Pointer[[]float64], views[pr.I].NumNodes())
		s.rows[p][1] = make([]atomic.Pointer[[]float64], views[pr.J].NumNodes())
	}
	for _, n := range g.Nodes {
		if _, dup := s.nodeByName[n.Name]; !dup {
			s.nodeByName[n.Name] = n.ID
		}
	}
	for vi, v := range views {
		name := g.EdgeTypeNames[v.Type]
		s.viewByName[name] = vi
		s.viewNames = append(s.viewNames, name)
	}
	final := f.FinalTable()
	s.norms = make([]float64, final.R)
	for i := range s.norms {
		s.norms[i] = mat.Norm2(final.Row(i))
	}
	return s
}

// node resolves a node name, or a typed 404.
func (s *snapshot) node(name string) (graph.NodeID, error) {
	id, ok := s.nodeByName[name]
	if !ok {
		return 0, errf(404, CodeUnknownNode, "unknown node %q", name)
	}
	return id, nil
}

// view resolves a view (edge-type) name, or a typed 404.
func (s *snapshot) view(name string) (int, error) {
	vi, ok := s.viewByName[name]
	if !ok {
		return 0, errf(404, CodeUnknownView, "unknown view %q", name)
	}
	return vi, nil
}

// rowSlot returns the row-table slot of T_{from→to}(id) for trained
// pair p, or nil when id is not in view from.
func (s *snapshot) rowSlot(p, from int, id graph.NodeID) *atomic.Pointer[[]float64] {
	l := s.frozen.Views()[from].Local(id)
	if l < 0 {
		return nil
	}
	side := 0
	if s.frozen.ViewPairs()[p].I != from {
		side = 1
	}
	return &s.rows[p][side][l]
}

// Neighbor is one k-NN result: a node and its cosine similarity to the
// query node's final embedding.
type Neighbor struct {
	// Node is the neighbor's name.
	Node string `json:"node"`
	// Similarity is the cosine similarity in [-1, 1].
	Similarity float64 `json:"similarity"`
}

// knnBlock is the number of rows the k-NN scan scores per
// mat.DotRows call.
const knnBlock = 64

// knn returns the exact k nearest neighbors of node id: cosine
// similarity dot/(|q|·|row|) over the final embeddings, excluding id
// itself, with a zero-norm query or row scoring 0. Results are ordered
// by similarity descending, ties by node ID, so they are deterministic
// for a given snapshot. The scan scores the table in blocks of
// knnBlock rows with mat.DotRows (the same bits as mat.Dot) and keeps
// the best k in an insertion list; rows arrive in ascending ID order,
// so a row that ties the list's last entry never displaces it. k must
// be in [1, maxK].
//
// The response slice is its only allocation; pinned by
// TestKNNAllocsResponseOnly.
func (s *snapshot) knn(id graph.NodeID, k int) []Neighbor {
	final := s.frozen.FinalTable()
	k = min(k, final.R-1)
	if k < 1 {
		return []Neighbor{}
	}
	q := final.Row(int(id))
	qn := s.norms[id]
	var (
		topID  [maxK]int
		topSim [maxK]float64
		rows   [knnBlock]int
		dots   [knnBlock]float64
	)
	n := 0
	for start := 0; start < final.R; start += knnBlock {
		m := min(knnBlock, final.R-start)
		for j := range m {
			rows[j] = start + j
		}
		mat.DotRows(q, final, rows[:m], dots[:m])
		for j, dot := range dots[:m] {
			i := start + j
			if i == int(id) {
				continue
			}
			sim := 0.0
			if qn > 0 && s.norms[i] > 0 {
				sim = dot / (qn * s.norms[i])
			}
			if n == k && sim <= topSim[k-1] {
				continue
			}
			p := min(n, k-1)
			for p > 0 && topSim[p-1] < sim {
				topID[p], topSim[p] = topID[p-1], topSim[p-1]
				p--
			}
			topID[p], topSim[p] = i, sim
			n = min(n+1, k)
		}
	}
	g := s.frozen.Graph()
	out := make([]Neighbor, n)
	for j := range out {
		out[j] = Neighbor{Node: g.Nodes[topID[j]].Name, Similarity: topSim[j]}
	}
	return out
}
