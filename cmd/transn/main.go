// Command transn trains heterogeneous network embeddings from the
// command line.
//
// Subcommands:
//
//	transn train -input net.tsv -output emb.tsv [-model model.snap] [flags]
//	    Train TransN (or a baseline via -method) on a TSV network and
//	    write one embedding per line: <node-name> <v1> <v2> ...
//	    -model also saves the trained TransN model as a transn.snap/v1
//	    file (SNAPSHOT.md): the file transnserve serves and diagnose
//	    reads.
//
//	transn stats -input net.tsv
//	    Print dataset statistics (the Table II columns).
//
//	transn generate -dataset AMiner -output net.tsv [-size full] [-seed N]
//	    Write one of the built-in synthetic datasets as TSV.
//
//	transn neighbors -input net.tsv -emb emb.tsv -node <name> [-k 10]
//	    Load trained embeddings and print a node's nearest neighbors by
//	    cosine similarity.
//
//	transn diagnose -input net.tsv -model model.snap [-summary]
//	    Run the internal/diag analyzers over a saved model: embedding
//	    and translator health, walk-corpus coverage, convergence (from
//	    a recorded -events stream). Exits non-zero on error findings.
//
//	transn snapshot inspect -snapshot model.snap [-json]
//	    Validate a .snap file (header, directory, checksum) and print
//	    its shape and section table; -json emits the
//	    transn.snap.inspect/v1 document `transn checkreport` accepts.
//
//	transn watch -target http://host:port
//	    Poll a running transnserve's /debug/history flight recorder and
//	    render a live terminal view of its request-rate, latency-p99,
//	    cache-hit-rate and runtime series.
//
// The TSV network format is documented in internal/graph (Load/Store):
// "N <name> <type> [label]" node lines followed by
// "E <u> <v> <edge-type> [weight]" edge lines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"transn/internal/ann"
	"transn/internal/baselines"
	"transn/internal/baselines/hin2vec"
	"transn/internal/baselines/line"
	"transn/internal/baselines/metapath2vec"
	"transn/internal/baselines/mve"
	"transn/internal/baselines/node2vec"
	"transn/internal/baselines/rgcn"
	"transn/internal/baselines/simple"
	"transn/internal/dataset"
	"transn/internal/diag"
	"transn/internal/graph"
	"transn/internal/lint"
	"transn/internal/load"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// quiet suppresses the informational stderr lines (-quiet on train):
// results, reports and errors still print.
var quiet bool

// infof prints a progress line to stderr unless -quiet was given.
func infof(format string, args ...any) {
	if !quiet {
		fmt.Fprintf(os.Stderr, format, args...)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "neighbors":
		err = cmdNeighbors(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "diagnose":
		err = cmdDiagnose(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "checkreport":
		err = cmdCheckReport(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "transn: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "transn: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: transn <train|stats|generate|neighbors|evaluate|diagnose|snapshot|checkreport|watch> [flags]

  train       -input net.tsv -output emb.tsv [-method transn] [-dim 64]
              [-seed 1] [-iterations 5] [-walklen 40] [-encoders 2]
              [-metapath a,b,a] [-ablation <name>] [-model model.snap] [-quiet]
              [-report rep.json] [-events ev.jsonl] [-debug-addr :6060]
              [-diagnose]
  stats       -input net.tsv
  generate    -dataset AMiner|BLOG|App-Daily|App-Weekly -output net.tsv
              [-size quick|full] [-seed 1]
  neighbors   -input net.tsv -emb emb.tsv -node NAME [-k 10]
  evaluate    -input net.tsv -emb emb.tsv -task classify|cluster
  diagnose    -input net.tsv -model model.snap [-output diag.json]
              [-summary] [-events ev.jsonl] [-no-corpus] [-corpus-seed 1]
              [-coverage-warn 0.95] [-workers 0]
  snapshot    inspect -snapshot model.snap [-json]
  checkreport -report rep.json (telemetry, diagnostics, lint, trace,
              history, serving-bench, snapshot-inspect or knn-bench
              document)
  watch       -target http://host:port [-interval 2s] [-res fine|coarse]
              [-frames N] [-width 60] (live terminal view of a
              transnserve /debug/history metrics feed)`)
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Load(f)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	input := fs.String("input", "", "input network TSV (required)")
	output := fs.String("output", "", "output embeddings TSV (required)")
	method := fs.String("method", "transn", "embedding method: transn, line, node2vec, deepwalk, metapath2vec, hin2vec, mve, rgcn, simple")
	dim := fs.Int("dim", 64, "embedding dimensionality")
	seed := fs.Int64("seed", 1, "random seed")
	iterations := fs.Int("iterations", 5, "TransN Algorithm 1 iterations")
	walklen := fs.Int("walklen", 40, "random walk length")
	encoders := fs.Int("encoders", 2, "encoders per translator")
	metapath := fs.String("metapath", "", "comma-separated node types for metapath2vec (defaults to an auto-derived pattern)")
	ablation := fs.String("ablation", "", "TransN ablation: no-cross-view, simple-walk, simple-translator, no-translation, no-reconstruction")
	workers := fs.Int("workers", 0, "TransN concurrency: views trained at once and walk shards per view (0 = all cores, 1 = serial); results are reproducible for a fixed -seed and -workers")
	modelOut := fs.String("model", "", "also save the trained TransN model to this path (transn.snap/v1)")
	quietFlag := fs.Bool("quiet", false, "suppress informational stderr output (results and errors only)")
	reportOut := fs.String("report", "", "write the training telemetry report as JSON to this path (TransN only)")
	eventsOut := fs.String("events", "", "stream training events as JSON lines to this path, or - for stderr (TransN only)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/diagnostics on this address while training")
	diagnose := fs.Bool("diagnose", false, "run model diagnostics after training, embed them in the -report document, and fail if the final model is non-finite (TransN only)")
	fs.Parse(args)
	quiet = *quietFlag
	if *input == "" || *output == "" {
		return fmt.Errorf("train: -input and -output are required")
	}
	g, err := loadGraph(*input)
	if err != nil {
		return err
	}
	infof("loaded %d nodes, %d edges, %d node types, %d edge types\n",
		g.NumNodes(), g.NumEdges(), g.NumNodeTypes(), g.NumEdgeTypes())

	m, err := resolveMethod(g, *method, *metapath, *ablation, *iterations, *walklen, *encoders)
	if err != nil {
		return err
	}
	var run *obs.Run
	if *debugAddr != "" || *reportOut != "" {
		run = obs.NewRun()
	}
	var monitor *diag.Monitor
	if tm, ok := m.(transnMethod); ok {
		tm.cfg.Workers = *workers
		tm.cfg.Telemetry = run
		tm.modelOut = *modelOut
		tm.reportOut = *reportOut
		if *eventsOut != "" {
			var w io.Writer = os.Stderr
			if *eventsOut != "-" {
				f, err := os.Create(*eventsOut)
				if err != nil {
					return fmt.Errorf("train: -events: %w", err)
				}
				defer f.Close()
				w = f
			}
			// Observer calls are serialized by the trainer, so one
			// encoder is safe; one event per line (JSON Lines).
			enc := json.NewEncoder(w)
			tm.cfg.Observer = func(ev obs.TrainEvent) { _ = enc.Encode(ev) }
		}
		if *diagnose || *debugAddr != "" {
			// The convergence monitor wraps whatever observer is already
			// configured: original events pass through first, then the
			// monitor's synthesized diagnostic events (plateau,
			// divergence, non-finite) land in the same stream.
			monitor = diag.NewMonitor(tm.cfg.Observer, diag.MonitorOptions{})
			tm.cfg.Observer = monitor.Observe
		}
		tm.diagnose = *diagnose
		m = tm
	} else {
		switch {
		case *modelOut != "":
			return fmt.Errorf("train: -model is only supported with -method transn")
		case *reportOut != "":
			return fmt.Errorf("train: -report is only supported with -method transn")
		case *eventsOut != "":
			return fmt.Errorf("train: -events is only supported with -method transn")
		case *diagnose:
			return fmt.Errorf("train: -diagnose is only supported with -method transn")
		}
	}
	if *debugAddr != "" {
		var routes []obs.Route
		if monitor != nil {
			routes = append(routes, obs.Route{Pattern: "/debug/diagnostics", Handler: monitor})
		}
		srv, addr, err := run.ServeDebug(*debugAddr, routes...)
		if err != nil {
			return fmt.Errorf("train: -debug-addr: %w", err)
		}
		defer srv.Close()
		infof("debug server listening on %s\n", addr)
	}
	emb, err := m.Embed(g, *dim, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*output)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < emb.R; i++ {
		fmt.Fprint(w, g.Nodes[i].Name)
		for _, v := range emb.Row(i) {
			fmt.Fprintf(w, "\t%.6g", v)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	infof("wrote %d %d-dimensional embeddings to %s\n", emb.R, emb.C, *output)
	return nil
}

// reportValidator binds one schema-stable document family to its
// validator; kind is the noun printed on success.
type reportValidator struct {
	schema   string
	kind     string
	validate func([]byte) error
}

// reportValidators is checkreport's dispatch table: the file's own
// schema field picks the row. A new document family registers here with
// one line. An unrecognized schema is an error listing this table's
// names; only a file with no schema field at all falls through to the
// telemetry-report validator for its diagnostic.
var reportValidators = []reportValidator{
	{diag.Schema, "document", diag.Validate},
	{lint.Schema, "document", lint.Validate},
	{obs.TraceDumpSchema, "dump", obs.ValidateTraceDump},
	{obs.HistorySchema, "dump", obs.ValidateHistoryDump},
	{load.BenchSchema, "report", load.Validate},
	{snapfmt.InspectSchema, "document", snapfmt.ValidateInspect},
	{ann.BenchSchema, "document", ann.ValidateBench},
	{obs.ReportSchema, "report", obs.ValidateReport},
}

// registeredSchemas lists the dispatch table's schema names for the
// unknown-schema error, so a typo in a hand-edited file points at the
// valid vocabulary instead of a misleading telemetry-validation error.
func registeredSchemas() []string {
	names := make([]string, 0, len(reportValidators))
	for _, v := range reportValidators {
		names = append(names, v.schema)
	}
	return names
}

// cmdCheckReport validates any schema-stable artifact the toolchain
// writes — telemetry reports (`train -report` / `benchrun -report`),
// diagnostics (`diagnose -output`), lint documents (`transnlint
// -json`), trace-ring and history dumps fetched from transnserve's
// debug endpoints, and serving-bench reports (`transnload -report`) —
// against its published schema; the file's own schema field picks the
// validator from reportValidators. CI's smoke jobs run this on the
// artifacts they upload.
func cmdCheckReport(args []string) error {
	fs := flag.NewFlagSet("checkreport", flag.ExitOnError)
	report := fs.String("report", "", "telemetry report, diagnostics or lint JSON to validate (required)")
	fs.Parse(args)
	if *report == "" {
		return fmt.Errorf("checkreport: -report is required")
	}
	data, err := os.ReadFile(*report)
	if err != nil {
		return err
	}
	var peek struct {
		Schema string `json:"schema"`
	}
	_ = json.Unmarshal(data, &peek)
	for _, v := range reportValidators {
		if peek.Schema != v.schema {
			continue
		}
		if err := v.validate(data); err != nil {
			return fmt.Errorf("checkreport: %s: %w", *report, err)
		}
		fmt.Printf("%s: valid %s %s\n", *report, v.schema, v.kind)
		return nil
	}
	if peek.Schema != "" {
		return fmt.Errorf("checkreport: %s: unknown schema %q (registered schemas: %s)",
			*report, peek.Schema, strings.Join(registeredSchemas(), ", "))
	}
	// No schema field at all: fall through to the telemetry-report
	// validator, whose own error explains what a report must contain.
	if err := obs.ValidateReport(data); err != nil {
		return fmt.Errorf("checkreport: %s: %w", *report, err)
	}
	fmt.Printf("%s: valid %s report\n", *report, obs.ReportSchema)
	return nil
}

func resolveMethod(g *graph.Graph, name, metapath, ablation string, iterations, walklen, encoders int) (baselines.Method, error) {
	switch strings.ToLower(name) {
	case "transn":
		cfg := transn.DefaultConfig()
		cfg.Iterations = iterations
		cfg.WalkLength = walklen
		cfg.Encoders = encoders
		switch ablation {
		case "":
		case "no-cross-view":
			cfg.NoCrossView = true
		case "simple-walk":
			cfg.SimpleWalk = true
		case "simple-translator":
			cfg.SimpleTranslator = true
		case "no-translation":
			cfg.NoTranslation = true
		case "no-reconstruction":
			cfg.NoReconstruction = true
		default:
			return nil, fmt.Errorf("unknown ablation %q", ablation)
		}
		return transnMethod{cfg: cfg}, nil
	case "line":
		return line.Method{}, nil
	case "node2vec":
		return node2vec.Method{P: 0.5, Q: 2, WalkLength: walklen}, nil
	case "deepwalk":
		return node2vec.Method{P: 1, Q: 1, WalkLength: walklen}, nil
	case "metapath2vec":
		pattern := strings.Split(metapath, ",")
		if metapath == "" {
			pattern = metapath2vec.DefaultPattern(g)
			infof("auto-derived meta-path: %s\n", strings.Join(pattern, "-"))
		}
		return metapath2vec.Method{Pattern: pattern, WalkLength: walklen}, nil
	case "hin2vec":
		return hin2vec.Method{WalkLength: walklen}, nil
	case "mve":
		return mve.Method{WalkLength: walklen}, nil
	case "rgcn":
		return rgcn.Method{}, nil
	case "simple":
		return simple.Method{}, nil
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
}

// transnMethod adapts transn.Train to baselines.Method for the CLI.
type transnMethod struct {
	cfg       transn.Config
	modelOut  string
	reportOut string
	diagnose  bool
}

func (transnMethod) Name() string { return "TransN" }

func (m transnMethod) Embed(g *graph.Graph, dim int, seed int64) (*mat.Dense, error) {
	cfg := m.cfg
	cfg.Dim = dim
	cfg.Seed = seed
	model, err := transn.Train(g, cfg)
	if err != nil {
		return nil, err
	}
	var doc *diag.Document
	if m.diagnose {
		doc = diag.Analyze(model, diag.Options{Name: "train"})
	}
	if m.reportOut != "" {
		rep := model.Report()
		if doc != nil {
			doc.Finalize()
			raw, err := json.Marshal(doc)
			if err != nil {
				return nil, err
			}
			rep.Diagnostics = raw
		}
		f, err := os.Create(m.reportOut)
		if err != nil {
			return nil, err
		}
		if err := obs.WriteReport(f, rep); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		infof("wrote telemetry report to %s\n", m.reportOut)
	}
	// The report is written before the finiteness verdict, so a
	// corrupted run still leaves its diagnostics behind. A model file
	// is finite by construction (SNAPSHOT.md §1): a non-finite model
	// fails here under -diagnose, and in writeModel otherwise.
	if m.diagnose {
		if err := model.CheckFinite(); err != nil {
			return nil, fmt.Errorf("trained model is non-finite: %w", err)
		}
	}
	if m.modelOut != "" {
		if err := writeModel(m.modelOut, model); err != nil {
			return nil, err
		}
		infof("saved model to %s\n", m.modelOut)
	}
	return model.Embeddings(), nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	input := fs.String("input", "", "input network TSV (required)")
	fs.Parse(args)
	if *input == "" {
		return fmt.Errorf("stats: -input is required")
	}
	g, err := loadGraph(*input)
	if err != nil {
		return err
	}
	s := g.ComputeStats()
	fmt.Printf("nodes: %d\n", s.NumNodes)
	fmt.Printf("edges: %d\n", s.NumEdges)
	fmt.Printf("node types: %s\n", strings.Join(graph.SortedTypeCounts(s.NodesPerType), ", "))
	fmt.Printf("edge types: %s\n", strings.Join(graph.SortedTypeCounts(s.EdgesPerType), ", "))
	fmt.Printf("labeled nodes: %d (in %d classes)\n", s.LabeledNodes, s.NumLabels)
	fmt.Printf("average degree: %.2f\n", s.AverageDegree)
	fmt.Printf("density: %.6f\n", s.Density)
	fmt.Printf("views: %d, view-pairs: %d\n", g.NumEdgeTypes(), len(g.ViewPairs()))
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	name := fs.String("dataset", "", "dataset name: AMiner, BLOG, App-Daily, App-Weekly (required)")
	output := fs.String("output", "", "output network TSV (required)")
	sizeStr := fs.String("size", "quick", "quick or full")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)
	if *name == "" || *output == "" {
		return fmt.Errorf("generate: -dataset and -output are required")
	}
	size := dataset.Quick
	if *sizeStr == "full" {
		size = dataset.Full
	}
	for _, spec := range dataset.All() {
		if strings.EqualFold(spec.Name, *name) {
			g := spec.Generate(size, *seed)
			f, err := os.Create(*output)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := graph.Store(f, g); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d nodes, %d edges) to %s\n",
				spec.Name, g.NumNodes(), g.NumEdges(), *output)
			return nil
		}
	}
	return fmt.Errorf("unknown dataset %q", *name)
}

func cmdNeighbors(args []string) error {
	fs := flag.NewFlagSet("neighbors", flag.ExitOnError)
	input := fs.String("input", "", "input network TSV (required)")
	embPath := fs.String("emb", "", "embeddings TSV from `transn train` (required)")
	node := fs.String("node", "", "query node name (required)")
	k := fs.Int("k", 10, "number of neighbors")
	fs.Parse(args)
	if *input == "" || *embPath == "" || *node == "" {
		return fmt.Errorf("neighbors: -input, -emb and -node are required")
	}
	g, err := loadGraph(*input)
	if err != nil {
		return err
	}
	emb, names, err := loadEmbeddings(*embPath)
	if err != nil {
		return err
	}
	qi := -1
	for i, n := range names {
		if n == *node {
			qi = i
			break
		}
	}
	if qi < 0 {
		return fmt.Errorf("node %q not found in embeddings", *node)
	}
	type scored struct {
		idx int
		sim float64
	}
	var all []scored
	for i := range names {
		if i == qi {
			continue
		}
		all = append(all, scored{i, mat.CosineSim(emb.Row(qi), emb.Row(i))})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].sim > all[b].sim })
	if *k > len(all) {
		*k = len(all)
	}
	byName := map[string]graph.NodeID{}
	for _, n := range g.Nodes {
		byName[n.Name] = n.ID
	}
	for _, s := range all[:*k] {
		typeName := "?"
		if id, ok := byName[names[s.idx]]; ok {
			typeName = g.NodeTypeNames[g.NodeType(id)]
		}
		fmt.Printf("%-20s %-10s %.4f\n", names[s.idx], typeName, s.sim)
	}
	return nil
}

func loadEmbeddings(path string) (*mat.Dense, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var names []string
	var rows [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		names = append(names, fields[0])
		row := make([]float64, len(fields)-1)
		for i, s := range fields[1:] {
			row[i], err = strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad embedding value %q: %w", s, err)
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no embeddings in %s", path)
	}
	emb := mat.New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != emb.C {
			return nil, nil, fmt.Errorf("inconsistent embedding width at line %d", i+1)
		}
		emb.SetRow(i, r)
	}
	return emb, names, nil
}
