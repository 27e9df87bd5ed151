// Package repro benchmarks regenerate every table and figure of the
// paper's evaluation (Section IV) on the synthetic datasets:
//
//	go test -bench=Table2   # dataset statistics      (Table II)
//	go test -bench=Table3   # node classification     (Table III)
//	go test -bench=Table4   # link prediction         (Table IV)
//	go test -bench=Table5   # ablation study          (Table V)
//	go test -bench=Figure6  # t-SNE case study        (Figure 6)
//
// Each benchmark prints the paper-style rows once (first iteration) and
// then measures steady-state regeneration cost. cmd/benchrun produces
// the same tables with more control (-full, -seed, -reps). Component
// ablation benchmarks (BenchmarkAblation*) cover the design choices
// called out in DESIGN.md: walker variants, encoder depth, and
// cross-path length.
package repro

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"transn/internal/dataset"
	"transn/internal/experiments"
	"transn/internal/transn"
)

// benchOpts are deliberately small: benchmarks measure pipeline cost,
// while EXPERIMENTS.md records full-size accuracy numbers. TransN's
// rows depend on the worker count (shards per view), so Workers is the
// 2 that cmd/benchrun and results/ use, not the machine's core count.
func benchOpts() experiments.Options {
	return experiments.Options{Size: dataset.Quick, Dim: 32, Seed: 1, Reps: 1, Workers: 2}
}

// printOnce lets each table print its rows on the first benchmark
// iteration only, so -bench output stays readable.
var printOnce sync.Map

func sink(b *testing.B, key string) io.Writer {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded && testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func BenchmarkTable2DatasetGen(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Table2(sink(b, "t2"), opts)
	}
}

func BenchmarkTable3NodeClassification(b *testing.B) {
	for _, spec := range dataset.All() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			opts := benchOpts()
			g := spec.Generate(opts.Size, opts.Seed)
			methods := experiments.Methods(spec.Name, opts)
			for i := 0; i < b.N; i++ {
				for _, m := range methods {
					if _, err := m.Embed(g, opts.Dim, opts.Seed); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkTable4LinkPrediction(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(sink(b, "t4"), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Ablation(b *testing.B) {
	for _, spec := range dataset.All() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			opts := benchOpts()
			g := spec.Generate(opts.Size, opts.Seed)
			methods := experiments.AblationMethods(opts)
			for i := 0; i < b.N; i++ {
				for _, m := range methods {
					if _, err := m.Embed(g, opts.Dim, opts.Seed); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFigure6TSNE(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(sink(b, "f6"), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component ablation benchmarks (DESIGN.md design choices). ---

func transnBenchCfg() transn.Config {
	cfg := transn.DefaultConfig()
	cfg.Dim = 32
	cfg.WalkLength = 20
	cfg.MinWalksPerNode = 4
	cfg.MaxWalksPerNode = 10
	cfg.Iterations = 2
	cfg.CrossPathLen = 6
	cfg.CrossPathsPerPair = 50
	// Component ablations compare algorithmic variants, so they run on
	// the serial path; BenchmarkWorkerPool* measure the pool itself.
	cfg.Workers = 1
	return cfg
}

// --- Worker-pool benchmarks (serial vs. pooled; DESIGN.md §6). ---

// workerCounts returns the ladder 1, 2, ..., NumCPU without duplicates.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	n := runtime.NumCPU()
	out := counts[:0]
	for _, c := range counts {
		if c <= n {
			out = append(out, c)
		}
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// BenchmarkWorkerPoolSingleView isolates the sharded walk + skip-gram
// path (no cross-view fan-out): the speedup of W4 over W1 on a
// multi-core machine is the headline number for the pool.
func BenchmarkWorkerPoolSingleView(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, w := range workerCounts() {
		w := w
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			cfg := transnBenchCfg()
			cfg.NoCrossView = true
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerPoolFullPipeline runs the complete Algorithm 1 loop
// (walks, skip-gram, cross-view pair steps) across the worker ladder.
func BenchmarkWorkerPoolFullPipeline(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, w := range workerCounts() {
		w := w
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			cfg := transnBenchCfg()
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationWalkers(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, mode := range []struct {
		name   string
		mutate func(*transn.Config)
	}{
		{"Correlated", func(c *transn.Config) {}},
		{"Simple", func(c *transn.Config) { c.SimpleWalk = true }},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := transnBenchCfg()
			mode.mutate(&cfg)
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationEncoderDepth(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, h := range []int{1, 2, 4, 6} {
		h := h
		b.Run(map[int]string{1: "H1", 2: "H2", 4: "H4", 6: "H6"}[h], func(b *testing.B) {
			cfg := transnBenchCfg()
			cfg.Encoders = h
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCrossPathLen(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, l := range []int{4, 8, 16} {
		l := l
		b.Run(map[int]string{4: "L4", 8: "L8", 16: "L16"}[l], func(b *testing.B) {
			cfg := transnBenchCfg()
			cfg.CrossPathLen = l
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationTranslatorVariant(b *testing.B) {
	g := dataset.AppDaily(dataset.Quick, 1)
	for _, mode := range []struct {
		name   string
		mutate func(*transn.Config)
	}{
		{"EncoderStack", func(c *transn.Config) {}},
		{"SimpleFeedForward", func(c *transn.Config) { c.SimpleTranslator = true }},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := transnBenchCfg()
			mode.mutate(&cfg)
			for i := 0; i < b.N; i++ {
				if _, err := transn.Train(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
