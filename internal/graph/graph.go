// Package graph implements the heterogeneous network model of the paper
// (Definitions 1–5): typed nodes, typed weighted undirected edges, the
// separation of a network into one view per edge type, view-pairs that
// share common nodes, and paired-subviews used by the cross-view
// algorithm. Views expose CSR adjacency for fast random walks.
package graph

import (
	"fmt"
	"math"

	"transn/internal/ordered"
)

// NodeID identifies a node within a Graph. IDs are dense: 0..NumNodes-1.
type NodeID int32

// NodeType indexes into Graph.NodeTypeNames.
type NodeType int

// EdgeType indexes into Graph.EdgeTypeNames. Each edge type induces one
// view (Definition 2).
type EdgeType int

// NoLabel marks an unlabeled node.
const NoLabel = -1

// Node is a typed, optionally labeled vertex.
type Node struct {
	ID    NodeID
	Type  NodeType
	Name  string
	Label int // NoLabel when unlabeled
}

// Edge is an undirected weighted typed edge. U < V is not required; the
// graph stores each edge once and mirrors it in adjacency.
type Edge struct {
	U, V   NodeID
	Type   EdgeType
	Weight float64
}

// Graph is a heterogeneous network G = {V, E, C_V, C_E} (Definition 1).
// Construct one with a Builder; a built Graph is immutable.
type Graph struct {
	NodeTypeNames []string
	EdgeTypeNames []string
	Nodes         []Node
	Edges         []Edge

	views []*View // one per edge type, built lazily by Views()
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// NumNodeTypes returns |C_V|.
func (g *Graph) NumNodeTypes() int { return len(g.NodeTypeNames) }

// NumEdgeTypes returns |C_E|, which is also the number of views.
func (g *Graph) NumEdgeTypes() int { return len(g.EdgeTypeNames) }

// NodeType returns the type of node id.
func (g *Graph) NodeType(id NodeID) NodeType { return g.Nodes[id].Type }

// Label returns the label of node id, or NoLabel.
func (g *Graph) Label(id NodeID) int { return g.Nodes[id].Label }

// LabeledNodes returns the IDs of all nodes with a label, sorted.
func (g *Graph) LabeledNodes() []NodeID {
	var out []NodeID
	for _, n := range g.Nodes {
		if n.Label != NoLabel {
			out = append(out, n.ID)
		}
	}
	return out
}

// NumLabels returns the number of distinct labels (max label + 1).
func (g *Graph) NumLabels() int {
	maxL := -1
	for _, n := range g.Nodes {
		if n.Label > maxL {
			maxL = n.Label
		}
	}
	return maxL + 1
}

// AverageDegree returns 2|E|/|V|, the δ of Theorem 1.
func (g *Graph) AverageDegree() float64 {
	if len(g.Nodes) == 0 {
		return 0
	}
	return 2 * float64(len(g.Edges)) / float64(len(g.Nodes))
}

// Views separates the network into one view per edge type (Definition 2)
// and memoizes the result. Views with no edges are still returned (they
// are empty views) so view indices always equal edge-type indices, and
// together the views partition E (Equation 1).
func (g *Graph) Views() []*View {
	if g.views != nil {
		return g.views
	}
	perType := make([][]Edge, g.NumEdgeTypes())
	for _, e := range g.Edges {
		perType[e.Type] = append(perType[e.Type], e)
	}
	g.views = make([]*View, g.NumEdgeTypes())
	for t := range perType {
		g.views[t] = buildView(g, EdgeType(t), perType[t])
	}
	return g.views
}

// ViewPairs returns every pair of views that share at least one node
// (Definition 3), as index pairs (i < j) into Views().
func (g *Graph) ViewPairs() []ViewPair {
	views := g.Views()
	var pairs []ViewPair
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			common := commonNodes(views[i], views[j])
			if len(common) > 0 {
				pairs = append(pairs, ViewPair{I: i, J: j, Common: common})
			}
		}
	}
	return pairs
}

// ViewPair is a pair of views φ_i, φ_j with V_i ∩ V_j ≠ ∅ (Definition 3).
type ViewPair struct {
	I, J   int      // indices into Graph.Views()
	Common []NodeID // sorted common nodes M_ij
}

func commonNodes(a, b *View) []NodeID {
	// Both node lists are sorted; merge-intersect.
	var out []NodeID
	i, j := 0, 0
	for i < len(a.NodeIDs) && j < len(b.NodeIDs) {
		switch {
		case a.NodeIDs[i] < b.NodeIDs[j]:
			i++
		case a.NodeIDs[i] > b.NodeIDs[j]:
			j++
		default:
			out = append(out, a.NodeIDs[i])
			i++
			j++
		}
	}
	return out
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	nodeTypes map[string]NodeType
	edgeTypes map[string]EdgeType
	g         *Graph
	built     bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		nodeTypes: map[string]NodeType{},
		edgeTypes: map[string]EdgeType{},
		g:         &Graph{},
	}
}

// NodeType interns a node type name and returns its index.
func (b *Builder) NodeType(name string) NodeType {
	if t, ok := b.nodeTypes[name]; ok {
		return t
	}
	t := NodeType(len(b.g.NodeTypeNames))
	b.nodeTypes[name] = t
	b.g.NodeTypeNames = append(b.g.NodeTypeNames, name)
	return t
}

// EdgeType interns an edge type name and returns its index.
func (b *Builder) EdgeType(name string) EdgeType {
	if t, ok := b.edgeTypes[name]; ok {
		return t
	}
	t := EdgeType(len(b.g.EdgeTypeNames))
	b.edgeTypes[name] = t
	b.g.EdgeTypeNames = append(b.g.EdgeTypeNames, name)
	return t
}

// AddNode appends a node of type t and returns its ID.
func (b *Builder) AddNode(t NodeType, name string) NodeID {
	id := NodeID(len(b.g.Nodes))
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Type: t, Name: name, Label: NoLabel})
	return id
}

// SetLabel assigns a class label to node id.
func (b *Builder) SetLabel(id NodeID, label int) {
	b.g.Nodes[id].Label = label
}

// AddEdge appends an undirected edge. Self-loops are rejected at Build.
func (b *Builder) AddEdge(u, v NodeID, t EdgeType, weight float64) {
	b.g.Edges = append(b.g.Edges, Edge{U: u, V: v, Type: t, Weight: weight})
}

// Build validates and returns the graph. Validation enforces Definition 1
// plus the paper's structural observation that an edge type implicitly
// restricts its end-node types: every edge type must connect exactly one
// unordered pair of node types (so each view is a homo-view or a
// heter-view, Definition 4).
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("graph: Builder used twice")
	}
	g := b.g
	if g.NumNodeTypes()+g.NumEdgeTypes() <= 1 {
		return nil, fmt.Errorf("graph: |C_V|+|C_E| must exceed 1 (Definition 1), got %d+%d",
			g.NumNodeTypes(), g.NumEdgeTypes())
	}
	type typePair struct{ a, b NodeType }
	seen := make(map[EdgeType]typePair)
	for i, e := range g.Edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: edge %d is a self-loop on node %d", i, e.U)
		}
		if int(e.U) >= len(g.Nodes) || int(e.V) >= len(g.Nodes) || e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edge %d references unknown node", i)
		}
		// NaN fails the comparison and +Inf the bound: an alias table
		// over either draws garbage.
		if !(e.Weight > 0 && e.Weight <= math.MaxFloat64) {
			return nil, fmt.Errorf("graph: edge %d has weight %g, want positive and finite", i, e.Weight)
		}
		tu, tv := g.Nodes[e.U].Type, g.Nodes[e.V].Type
		if tu > tv {
			tu, tv = tv, tu
		}
		p := typePair{tu, tv}
		if prev, ok := seen[e.Type]; ok {
			if prev != p {
				return nil, fmt.Errorf("graph: edge type %q connects both (%s,%s) and (%s,%s)",
					g.EdgeTypeNames[e.Type],
					g.NodeTypeNames[prev.a], g.NodeTypeNames[prev.b],
					g.NodeTypeNames[p.a], g.NodeTypeNames[p.b])
			}
		} else {
			seen[e.Type] = p
		}
	}
	b.built = true
	return g, nil
}

// Stats summarizes a graph for the Table II analogue.
type Stats struct {
	NumNodes, NumEdges int
	NodesPerType       map[string]int
	EdgesPerType       map[string]int
	LabeledNodes       int
	NumLabels          int
	AverageDegree      float64
	Density            float64 // 2|E| / (|V|(|V|-1))
}

// ComputeStats gathers the statistics reported in the paper's Table II.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		NumNodes:      g.NumNodes(),
		NumEdges:      g.NumEdges(),
		NodesPerType:  map[string]int{},
		EdgesPerType:  map[string]int{},
		NumLabels:     g.NumLabels(),
		AverageDegree: g.AverageDegree(),
	}
	for _, n := range g.Nodes {
		s.NodesPerType[g.NodeTypeNames[n.Type]]++
		if n.Label != NoLabel {
			s.LabeledNodes++
		}
	}
	for _, e := range g.Edges {
		s.EdgesPerType[g.EdgeTypeNames[e.Type]]++
	}
	if n := float64(g.NumNodes()); n > 1 {
		s.Density = 2 * float64(g.NumEdges()) / (n * (n - 1))
	}
	return s
}

// SortedTypeCounts returns map entries as sorted "name=count" pairs, a
// stable form for printing and tests.
func SortedTypeCounts(m map[string]int) []string {
	keys := ordered.Keys(m)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}
