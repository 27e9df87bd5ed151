package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"transn/internal/graph"
)

// Endpoint names, in the order the mix and the metric names use them.
const (
	epEmbedding = "embedding"
	epTranslate = "translate"
	epKNN       = "knn"
	epInfer     = "infer"
)

var endpoints = []string{epEmbedding, epTranslate, epKNN, epInfer}

// mixWeights is the serving request mix: embedding 4, translate 3,
// knn 2, infer 1 (the serving load harness's default mix).
var mixWeights = []int{4, 3, 2, 1}

// knnK is the k of every knn request and of recall_at_10.
const knnK = 10

// request is one generated serving request.
type request struct {
	Endpoint string
	Method   string
	Target   string // path and query
	Body     []byte // POST body (infer only)
}

// inventory is what the request generator may ask about, derived from
// the graph the program was given. As in the serving load harness
// (internal/load), every draw is uniform: nodes for embedding and knn,
// (common node, from, to) triples for translate, so pairs weigh by how
// many nodes they can translate, and one view's members for infer.
type inventory struct {
	names       []string
	translates  []translateTarget
	viewNames   []string
	viewMembers [][]string
}

type translateTarget struct {
	node, from, to string
}

func newInventory(g *graph.Graph) *inventory {
	inv := &inventory{}
	for _, n := range g.Nodes {
		inv.names = append(inv.names, n.Name)
	}
	for _, v := range g.Views() {
		inv.viewNames = append(inv.viewNames, g.EdgeTypeNames[v.Type])
		members := make([]string, 0, len(v.NodeIDs))
		for _, id := range v.NodeIDs {
			members = append(members, g.Nodes[id].Name)
		}
		inv.viewMembers = append(inv.viewMembers, members)
	}
	for _, p := range g.ViewPairs() {
		from, to := inv.viewNames[p.I], inv.viewNames[p.J]
		for _, id := range p.Common {
			name := g.Nodes[id].Name
			inv.translates = append(inv.translates,
				translateTarget{node: name, from: from, to: to},
				translateTarget{node: name, from: to, to: from})
		}
	}
	return inv
}

// schedule is the deterministic request stream of one seed: the same
// seed and graph always give the same sequence of requests.
type schedule struct {
	inv *inventory
	rng *rand.Rand
	sum int
}

func newSchedule(g *graph.Graph, seed int64) *schedule {
	s := &schedule{inv: newInventory(g), rng: rand.New(rand.NewSource(seed))}
	for _, w := range mixWeights {
		s.sum += w
	}
	return s
}

// next returns the following request of the stream.
func (s *schedule) next() request {
	x := s.rng.Intn(s.sum)
	ep := 0
	for x >= mixWeights[ep] {
		x -= mixWeights[ep]
		ep++
	}
	inv, rng := s.inv, s.rng
	switch endpoints[ep] {
	case epEmbedding:
		q := url.Values{"node": {inv.names[rng.Intn(len(inv.names))]}}
		return request{Endpoint: epEmbedding, Method: "GET", Target: "/v1/embedding?" + q.Encode()}
	case epTranslate:
		tt := inv.translates[rng.Intn(len(inv.translates))]
		q := url.Values{"node": {tt.node}, "from": {tt.from}, "to": {tt.to}}
		return request{Endpoint: epTranslate, Method: "GET", Target: "/v1/translate?" + q.Encode()}
	case epKNN:
		return request{Endpoint: epKNN, Method: "GET", Target: knnTarget(inv.names[rng.Intn(len(inv.names))], false)}
	default:
		// An unseen node joined by one to three edges to members of one
		// non-empty view, with weight 1 or 2.
		vi := rng.Intn(len(inv.viewMembers))
		for len(inv.viewMembers[vi]) == 0 {
			vi = (vi + 1) % len(inv.viewMembers)
		}
		members := inv.viewMembers[vi]
		body := inferBody{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			body.Edges = append(body.Edges, inferEdge{
				Neighbor: members[rng.Intn(len(members))], Type: inv.viewNames[vi], Weight: float64(1 + rng.Intn(2)),
			})
		}
		b, err := json.Marshal(body)
		if err != nil {
			panic(fmt.Sprintf("encoding infer body: %v", err))
		}
		return request{Endpoint: epInfer, Method: "POST", Target: "/v1/infer", Body: b}
	}
}

func knnTarget(node string, exact bool) string {
	q := url.Values{"node": {node}, "k": {fmt.Sprint(knnK)}}
	if exact {
		q.Set("exact", "true")
	}
	return "/v1/knn?" + q.Encode()
}

type inferBody struct {
	Edges []inferEdge `json:"edges"`
}

type inferEdge struct {
	Neighbor string  `json:"neighbor"`
	Type     string  `json:"type"`
	Weight   float64 `json:"weight"`
}
