package serve

import (
	"fmt"
	"os"
	"runtime"
	"sort"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// snapshot is one immutable generation of serving state: a frozen model
// plus every index derived from it (name lookups, k-NN norms, the HNSW
// index) and the per-snapshot LRU cache of computed vectors. Handlers
// grab the current snapshot pointer once per request and work against
// it for the whole request, so a concurrent hot reload never changes
// state mid-request — the old snapshot stays valid until its last
// in-flight request finishes, then the garbage collector reclaims it,
// cache, index and (for file loads) mmap included.
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
	// index is the HNSW index over the final table, owned by this
	// snapshot (DESIGN.md §14): reloads swap table and index together,
	// atomically. Nil only if construction was skipped (never in
	// production paths).
	index *ann.Index
	// snapf keeps a .snap file's mapping alive for as long as this
	// snapshot is reachable; the frozen tables may alias it. A
	// finalizer closes it when the GC reclaims the snapshot, so the
	// last in-flight request on a retired generation can never observe
	// an unmapped table. Nil only for snapshots built in memory.
	snapf *snapfmt.Snapshot

	cache *lru
}

// loadSnapshot builds a serving snapshot of the given generation from
// the graph TSV and the transn.snap/v1 model file: O(header) validation
// + decode, float tables aliased straight out of the read-only mapping
// (no re-materialization), and the HNSW index decoded from the file's
// ANN section when present (built fresh otherwise).
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
	s := newSnapshot(f, gen, sv.cfg.CacheSize)
	asp := sv.run.Trace.Start(obs.SpanANNBuild)
	if annData := snapf.ANN(); len(annData) > 0 {
		s.index, err = ann.Decode(annData, f.FinalTable(), s.norms)
	} else {
		s.index, err = ann.Build(f.FinalTable(), s.norms, ann.Config{})
	}
	asp.End()
	if err != nil {
		return nil, fmt.Errorf("serve: ann index: %w", err)
	}
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
// indexes with default ANN parameters. Split out so tests can serve
// freshly trained models without a round-trip through disk.
func buildSnapshot(m *transn.Model, gen uint64, cacheSize int) (*snapshot, error) {
	f, err := m.Freeze()
	if err != nil {
		return nil, fmt.Errorf("serve: freezing model: %w", err)
	}
	s := newSnapshot(f, gen, cacheSize)
	s.index, err = ann.Build(f.FinalTable(), s.norms, ann.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve: building ann index: %w", err)
	}
	return s, nil
}

// newSnapshot derives the name maps and norms every snapshot needs,
// whether the model came from a file or from memory.
func newSnapshot(f *transn.Frozen, gen uint64, cacheSize int) *snapshot {
	g := f.Graph()
	s := &snapshot{
		frozen:     f,
		gen:        gen,
		nodeByName: make(map[string]graph.NodeID, g.NumNodes()),
		viewByName: map[string]int{},
		cache:      newLRU(cacheSize),
	}
	for _, n := range g.Nodes {
		if _, dup := s.nodeByName[n.Name]; !dup {
			s.nodeByName[n.Name] = n.ID
		}
	}
	for vi, v := range f.Views() {
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

// Neighbor is one k-NN result: a node and its cosine similarity to the
// query node's final embedding.
type Neighbor struct {
	// Node is the neighbor's name.
	Node string `json:"node"`
	// Similarity is the cosine similarity in [-1, 1].
	Similarity float64 `json:"similarity"`
}

// knnExact returns the exact k nearest neighbors of node id by
// brute-force scan: cosine similarity over final embeddings, excluding
// id itself. Ties break by node ID so results are deterministic for a
// given snapshot. Zero-norm rows (possible only for isolated
// pathologies) score 0. This is the ground truth behind /v1/knn's
// exact=true escape hatch and the recall tests.
func (s *snapshot) knnExact(id graph.NodeID, k int) []Neighbor {
	final := s.frozen.FinalTable()
	q := final.Row(int(id))
	qn := s.norms[id]
	type scored struct {
		id  int
		sim float64
	}
	all := make([]scored, 0, final.R-1)
	for i := 0; i < final.R; i++ {
		if i == int(id) {
			continue
		}
		sim := 0.0
		if qn > 0 && s.norms[i] > 0 {
			sim = mat.Dot(q, final.Row(i)) / (qn * s.norms[i])
		}
		all = append(all, scored{id: i, sim: sim})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	g := s.frozen.Graph()
	out := make([]Neighbor, 0, k)
	for _, sc := range all[:k] {
		out = append(out, Neighbor{Node: g.Nodes[sc.id].Name, Similarity: sc.sim})
	}
	return out
}

// knnIndex answers k-NN through the snapshot's HNSW index: search for
// k+1 (the query row itself ranks first), drop the query, trim to k.
// ef <= 0 means the index's configured default. Returns the neighbors
// and the number of distance evaluations spent.
func (s *snapshot) knnIndex(id graph.NodeID, k, ef int) ([]Neighbor, int, error) {
	final := s.frozen.FinalTable()
	cands, evals, err := s.index.Search(final.Row(int(id)), s.norms[id], k+1, ef)
	if err != nil {
		return nil, evals, err
	}
	g := s.frozen.Graph()
	out := make([]Neighbor, 0, k)
	for _, c := range cands {
		if c.ID == int(id) {
			continue
		}
		out = append(out, Neighbor{Node: g.Nodes[c.ID].Name, Similarity: c.Sim})
		if len(out) == k {
			break
		}
	}
	return out, evals, nil
}
