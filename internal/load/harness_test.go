package load

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transn/internal/graph"
	"transn/internal/rngstream"
	"transn/internal/serve"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// quickstartGraph mirrors the serving tests' Figure 2(a) academic
// network (serve's helper is unexported): authorship × affiliation
// share {A1, A3}, so translate targets exist.
func quickstartGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	univ := b.NodeType("university")
	authorship := b.EdgeType("authorship")
	citation := b.EdgeType("citation")
	affiliation := b.EdgeType("affiliation")
	a1 := b.AddNode(author, "A1")
	a2 := b.AddNode(author, "A2")
	a3 := b.AddNode(author, "A3")
	p1 := b.AddNode(paper, "P1")
	p2 := b.AddNode(paper, "P2")
	u1 := b.AddNode(univ, "U1")
	b.AddEdge(a1, p1, authorship, 1)
	b.AddEdge(a2, p1, authorship, 1)
	b.AddEdge(a3, p2, authorship, 1)
	b.AddEdge(p1, p2, citation, 1)
	b.AddEdge(a1, u1, affiliation, 1)
	b.AddEdge(a3, u1, affiliation, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startServer trains a quickstart model, writes its files, and serves
// it on a loopback port, returning the base URL, the graph and a
// shutdown func.
func startServer(t testing.TB) (string, *graph.Graph) {
	t.Helper()
	g := quickstartGraph(t)
	cfg := transn.DefaultConfig()
	cfg.Dim = 8
	cfg.WalkLength = 8
	cfg.MinWalksPerNode = 4
	cfg.MaxWalksPerNode = 8
	cfg.Iterations = 2
	cfg.CrossPathLen = 2
	cfg.CrossPathsPerPair = 10
	cfg.Workers = 1
	cfg.Seed = 1
	m, err := transn.Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gp := filepath.Join(dir, "graph.tsv")
	gf, err := os.Create(gp)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(gf, g); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := snapfmt.FromModel(m, g)
	if err != nil {
		t.Fatal(err)
	}
	mp := filepath.Join(dir, "model.snap")
	if err := snapfmt.WriteFile(mp, src); err != nil {
		t.Fatal(err)
	}
	// Sample every request into a ring big enough to hold the whole
	// run, so tail joins are deterministic.
	sv, err := serve.New(serve.Config{
		GraphPath: gp, ModelPath: mp,
		TraceSampleRate: 1, TraceRingSize: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := sv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sv.Shutdown() })
	return "http://" + addr, g
}

func TestInventory(t *testing.T) {
	g := quickstartGraph(t)
	inv, err := NewInventory(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.nodes) != 6 {
		t.Fatalf("%d nodes, want 6", len(inv.nodes))
	}
	// authorship × citation share {P1, P2} and authorship × affiliation
	// share {A1, A3}: 4 common nodes × 2 directions.
	if len(inv.translates) != 8 {
		t.Fatalf("%d translate targets, want 8", len(inv.translates))
	}
	for _, ep := range Endpoints() {
		if !inv.Supports(ep) {
			t.Fatalf("Supports(%s) = false", ep)
		}
	}
	// Generated requests are well-formed and deterministic per stream.
	a, b := rngstream.New(9, 1), rngstream.New(9, 1)
	for i := 0; i < 200; i++ {
		ep := Endpoints()[i%len(Endpoints())]
		m1, t1, b1 := inv.request(a, ep)
		m2, t2, b2 := inv.request(b, ep)
		if m1 != m2 || t1 != t2 || b1 != b2 {
			t.Fatalf("request %d not deterministic: %s %s vs %s %s", i, m1, t1, m2, t2)
		}
		wantPrefix := "/v1/" + map[Endpoint]string{
			EndpointEmbedding: "embedding", EndpointTranslate: "translate",
			EndpointKNN: "knn", EndpointInfer: "infer",
		}[ep]
		if !strings.HasPrefix(t1, wantPrefix) {
			t.Fatalf("%s request targets %q", ep, t1)
		}
		if (ep == EndpointInfer) != (m1 == http.MethodPost) {
			t.Fatalf("%s uses method %s", ep, m1)
		}
	}
}

func TestInventoryRejectsTinyGraph(t *testing.T) {
	// The builder itself refuses Definition-1-degenerate networks, so
	// construct the one-node graph directly to hit the guard.
	g := &graph.Graph{Nodes: []graph.Node{{Name: "solo"}}}
	if _, err := NewInventory(g); err == nil {
		t.Fatal("one-node graph accepted")
	}
}

// singleViewGraph has no overlapping views, so translate has no targets.
func singleViewGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	authorship := b.EdgeType("authorship")
	a1 := b.AddNode(author, "A1")
	p1 := b.AddNode(paper, "P1")
	b.AddEdge(a1, p1, authorship, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunRejectsBadProfiles(t *testing.T) {
	inv, err := NewInventory(quickstartGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	base := Profile{Target: "http://127.0.0.1:1", Rate: 10, Duration: time.Millisecond}
	for name, p := range map[string]Profile{
		"empty target":  {Rate: 10, Duration: time.Millisecond},
		"zero rate":     {Target: base.Target, Duration: time.Millisecond},
		"zero duration": {Target: base.Target, Rate: 10},
		"neg warmup":    {Target: base.Target, Rate: 10, Duration: time.Millisecond, Warmup: -1},
		"neg reloads":   {Target: base.Target, Rate: 10, Duration: time.Millisecond, Reloads: -1},
	} {
		if _, err := Run(p, inv); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A translate-weighted mix against a graph with no view overlap is
	// rejected up front instead of producing a 100% error run.
	soloInv, err := NewInventory(singleViewGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Mix = Mix{EndpointTranslate: 1}
	if _, err := Run(p, soloInv); err == nil || !strings.Contains(err.Error(), "translate") {
		t.Fatalf("unsupported translate mix accepted: %v", err)
	}
}

// TestRunEndToEnd drives a live server through the full harness: mixed
// traffic, warmup exclusion, two mid-run hot reloads, /metrics deltas —
// and requires a clean, validating, gate-passing report with zero
// errors (the acceptance bar: reloads under load cause no 5xx).
func TestRunEndToEnd(t *testing.T) {
	target, g := startServer(t)
	inv, err := NewInventory(g)
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{
		Target:   target,
		Rate:     400,
		Duration: 600 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
		Seed:     7,
		Reloads:  2,
		Name:     "harness-e2e",
	}
	if testing.Short() {
		p.Rate, p.Duration = 200, 400*time.Millisecond
	}
	rep, err := Run(p, inv)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("report does not validate: %v\n%s", err, buf.Bytes())
	}

	if rep.Sent == 0 {
		t.Fatal("no measured requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors across reloads (by code: %v)", rep.Errors, rep.ErrorsByCode)
	}
	if rep.ReloadsOK != p.Reloads {
		t.Fatalf("reloads_ok = %d, want %d", rep.ReloadsOK, p.Reloads)
	}
	for _, ep := range Endpoints() {
		es, ok := rep.Endpoints[string(ep)]
		if !ok || es.Sent == 0 {
			t.Fatalf("endpoint %s got no measured traffic", ep)
		}
		if es.Sent > 0 && es.P99Seconds <= 0 {
			t.Fatalf("endpoint %s: p99 = %v", ep, es.P99Seconds)
		}
	}
	if rep.AchievedRate <= 0 {
		t.Fatalf("achieved_rate = %v", rep.AchievedRate)
	}
	if rep.Server == nil {
		t.Fatal("no server section: /metrics scrape failed")
	}
	if rep.Server.Reloads != int64(p.Reloads) {
		t.Fatalf("server reload delta = %d, want %d", rep.Server.Reloads, p.Reloads)
	}
	if rep.Server.Requests < rep.Sent {
		t.Fatalf("server saw %d requests, harness sent %d measured", rep.Server.Requests, rep.Sent)
	}
	if rep.Server.CacheHits+rep.Server.CacheMisses == 0 {
		t.Fatal("no row-table lookups recorded on the server")
	}
	if rep.Server.Coalesced != 0 {
		t.Fatalf("server coalesced = %d, want the frozen field's constant 0", rep.Server.Coalesced)
	}

	// Tail attribution: with the server sampling every request into a
	// run-sized ring, every slowest-N observation must join, the stage
	// totals must be non-empty and a dominant stage must be named.
	if rep.Tail == nil {
		t.Fatal("no tail section")
	}
	if len(rep.Tail.Requests) == 0 || rep.Tail.Joined != len(rep.Tail.Requests) {
		t.Fatalf("tail joined %d of %d slowest requests, want all",
			rep.Tail.Joined, len(rep.Tail.Requests))
	}
	if len(rep.Tail.StageTotals) == 0 || rep.Tail.DominantStage == "" {
		t.Fatalf("tail lacks stage attribution: %+v", rep.Tail)
	}
	for i, tr := range rep.Tail.Requests {
		if !tr.Joined || tr.ServerSeconds <= 0 || len(tr.Stages) == 0 {
			t.Fatalf("tail request %d incomplete: %+v", i, tr)
		}
		if tr.ServerSeconds > tr.ClientSeconds+0.001 {
			t.Fatalf("tail request %d: server %vs exceeds client %vs",
				i, tr.ServerSeconds, tr.ClientSeconds)
		}
	}

	// The gate passes with sane budgets and trips on an impossible one —
	// the same pair of profiles CI's smoke job runs.
	pass := &Gate{
		Overall:      &Budget{MaxErrorRate: f(0)},
		Max5xx:       i64(0),
		MinReloadsOK: iv(p.Reloads),
	}
	if vs := pass.Check(rep); len(vs) != 0 {
		t.Fatalf("sane gate tripped: %v", vs)
	}
	impossible := &Gate{Overall: &Budget{MaxP99Seconds: f(1e-9)}}
	if vs := impossible.Check(rep); len(vs) == 0 {
		t.Fatal("1ns p99 budget did not trip")
	}
}

// TestRunWarmupExclusion pins that warmup traffic reaches the server
// but never the report: a run whose schedule is entirely warmup
// reports zero measured requests.
func TestRunWarmupExclusion(t *testing.T) {
	target, g := startServer(t)
	inv, err := NewInventory(g)
	if err != nil {
		t.Fatal(err)
	}
	p := Profile{
		Target:   target,
		Rate:     200,
		Duration: 200 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     3,
		Name:     "warmup-check",
	}
	rep, err := Run(p, inv)
	if err != nil {
		t.Fatal(err)
	}
	// Offered arrivals over warmup+duration exceed measured sends: the
	// warmup share was excluded.
	wantOffered := p.Rate * (p.Warmup + p.Duration).Seconds()
	if float64(rep.Sent) >= wantOffered {
		t.Fatalf("sent %d >= offered-window expectation %v; warmup not excluded", rep.Sent, wantOffered)
	}
	if rep.Sent == 0 {
		t.Fatal("measured window produced nothing")
	}
}
