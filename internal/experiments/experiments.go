// Package experiments wires datasets, methods and evaluation protocols
// into the paper's tables and figures (Section IV): Table II (dataset
// statistics), Table III (node classification), Table IV (link
// prediction), Table V (ablation) and Figure 6 (t-SNE case study). Both
// cmd/benchrun and the repository's benchmark suite drive this package.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"transn/internal/baselines"
	"transn/internal/baselines/hin2vec"
	"transn/internal/baselines/line"
	"transn/internal/baselines/metapath2vec"
	"transn/internal/baselines/mve"
	"transn/internal/baselines/node2vec"
	"transn/internal/baselines/rgcn"
	"transn/internal/baselines/simple"
	"transn/internal/dataset"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/obs"
	"transn/internal/transn"
)

// Options configures an experiment run.
type Options struct {
	Size    dataset.Size // Quick (tests/benches) or Full (closer to paper)
	Dim     int          // embedding dimensionality (paper: 128)
	Seed    int64
	Reps    int // classification repetitions (paper: 10)
	Workers int // TransN worker-pool size (0 = all cores, 1 = serial)
	// Observer, when non-nil, is installed as the Config.Observer of
	// every TransN training this run performs (benchrun threads its
	// convergence monitor through here). Baselines ignore it.
	Observer func(obs.TrainEvent)
}

// DefaultOptions returns fast settings for iterative use.
func DefaultOptions() Options {
	return Options{Size: dataset.Quick, Dim: 32, Seed: 1, Reps: 3}
}

// FullOptions returns heavier settings closer to the paper's setup.
func FullOptions() Options {
	return Options{Size: dataset.Full, Dim: 64, Seed: 1, Reps: 10}
}

// TransNMethod adapts transn.Train to the baselines.Method interface.
type TransNMethod struct {
	Label string // display name; defaults to "TransN"
	Cfg   transn.Config
}

// Name implements baselines.Method.
func (m TransNMethod) Name() string {
	if m.Label == "" {
		return "TransN"
	}
	return m.Label
}

// Embed implements baselines.Method.
func (m TransNMethod) Embed(g *graph.Graph, dim int, seed int64) (*mat.Dense, error) {
	cfg := m.Cfg
	cfg.Dim = dim
	cfg.Seed = seed
	model, err := transn.Train(g, cfg)
	if err != nil {
		return nil, err
	}
	return model.Embeddings(), nil
}

// transnConfig returns TransN hyperparameters scaled to the run size.
func transnConfig(o Options) transn.Config {
	cfg := transn.DefaultConfig()
	// Tables are reproducible run to run for a fixed worker count.
	cfg.Workers = o.Workers
	cfg.Observer = o.Observer
	if o.Size == dataset.Quick {
		cfg.WalkLength = 20
		cfg.MinWalksPerNode = 4
		cfg.MaxWalksPerNode = 10
		cfg.Iterations = 6
		cfg.CrossPathLen = 6
		cfg.CrossPathsPerPair = 100
		cfg.LRCross = 0.05
	}
	return cfg
}

// metaPattern returns the per-dataset meta-path, mirroring Section
// IV-A3's choices (APVPA on AMiner, UKU on BLOG, UAKAU-style on App-*;
// our App pattern bridges applets through users and keywords).
func metaPattern(datasetName string) []string {
	switch datasetName {
	case "AMiner":
		return []string{"author", "paper", "venue", "paper", "author"}
	case "BLOG":
		return []string{"user", "keyword", "user"}
	case "App-Daily", "App-Weekly":
		// Walks must start at applets (the labeled type) so every labeled
		// node is embedded. The two-hop AUA path is used because the
		// longer AUAKA variant dies early on applets with no keyword
		// edge (the AK view covers only part of the catalogue).
		return []string{"applet", "user", "applet"}
	default:
		return nil
	}
}

// Methods returns the Table III/IV method roster for a dataset: the
// seven baselines plus TransN, in the paper's row order.
func Methods(datasetName string, o Options) []baselines.Method {
	quick := o.Size == dataset.Quick
	scale := func(full, q int) int {
		if quick {
			return q
		}
		return full
	}
	pattern := metaPattern(datasetName)
	methods := []baselines.Method{
		line.Method{SamplesPerEdge: scale(500, 200)},
		node2vec.Method{P: 0.5, Q: 2, NumWalks: scale(10, 4), WalkLength: scale(40, 20)},
	}
	if pattern != nil {
		methods = append(methods, metapath2vec.Method{
			Pattern:  pattern,
			NumWalks: scale(10, 4), WalkLength: scale(40, 20),
		})
	}
	methods = append(methods,
		hin2vec.Method{NumWalks: scale(24, 16), WalkLength: 40},
		mve.Method{NumWalks: scale(6, 3), WalkLength: scale(40, 20), Iterations: scale(4, 2)},
		rgcn.Method{Epochs: scale(80, 40), Batch: scale(256, 128)},
		simple.Method{Epochs: scale(300, 250)},
		TransNMethod{Cfg: transnConfig(o)},
	)
	return methods
}

// AblationMethods returns the Table V roster: the five degenerated
// variants plus the full model.
func AblationMethods(o Options) []baselines.Method {
	base := transnConfig(o)
	mk := func(label string, mutate func(*transn.Config)) TransNMethod {
		cfg := base
		mutate(&cfg)
		return TransNMethod{Label: label, Cfg: cfg}
	}
	return []baselines.Method{
		mk("TransN-Without-Cross-View", func(c *transn.Config) { c.NoCrossView = true }),
		mk("TransN-With-Simple-Walk", func(c *transn.Config) { c.SimpleWalk = true }),
		mk("TransN-With-Simple-Translator", func(c *transn.Config) { c.SimpleTranslator = true }),
		mk("TransN-Without-Translation-Tasks", func(c *transn.Config) { c.NoTranslation = true }),
		mk("TransN-Without-Reconstruction-Tasks", func(c *transn.Config) { c.NoReconstruction = true }),
		TransNMethod{Cfg: base},
	}
}

// Row is one result line of a table.
type Row struct {
	Dataset string
	Method  string
	Metrics map[string]float64
}

// PrintRows renders rows grouped by dataset with aligned columns.
func PrintRows(w io.Writer, rows []Row, metricOrder []string) {
	fmt.Fprintf(w, "%-38s %-12s", "Method", "Dataset")
	for _, m := range metricOrder {
		fmt.Fprintf(w, " %10s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-38s %-12s", r.Method, r.Dataset)
		for _, m := range metricOrder {
			fmt.Fprintf(w, " %10.4f", r.Metrics[m])
		}
		fmt.Fprintln(w)
	}
}

// SortRowsByDataset orders rows dataset-major preserving method order
// within each dataset (stable).
func SortRowsByDataset(rows []Row, datasetOrder []string) {
	rank := map[string]int{}
	for i, d := range datasetOrder {
		rank[d] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rank[rows[i].Dataset] < rank[rows[j].Dataset]
	})
}
