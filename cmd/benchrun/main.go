// Command benchrun regenerates the paper's evaluation tables and
// figures on the synthetic datasets:
//
//	benchrun -table 2          # dataset statistics  (Table II)
//	benchrun -table 3          # node classification (Table III)
//	benchrun -table 4          # link prediction     (Table IV)
//	benchrun -table 5          # ablation study      (Table V)
//	benchrun -figure 6         # t-SNE case study    (Figure 6)
//	benchrun -all              # everything
//
// By default runs use quick (small) settings; -full switches to larger
// networks and paper-like hyperparameters. -points writes Figure 6
// coordinates as TSV to the given file. TransN's rows depend on the
// worker count, which sets its skip-gram shards per view, so -workers
// defaults to 2, the count the committed results/ tables were generated
// with: the same command prints the same tables on any machine.
//
// Every experiment runs under a telemetry span; -timings prints the
// per-experiment wall time from those spans, -report writes the whole
// run as a schema-stable JSON report (obs.ReportSchema) whose metrics
// section carries each result number keyed as
// "<experiment>/<dataset>/<method>/<metric>", and -debug-addr serves
// live /metrics, /debug/vars, /debug/pprof/* and /debug/diagnostics
// while the run is in flight. -diag attaches internal/diag's
// convergence monitor to every TransN training and writes its
// diagnostics document when the run finishes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"transn/internal/diag"
	"transn/internal/experiments"
	"transn/internal/obs"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (2, 3, 4, or 5)")
		figure    = flag.Int("figure", 0, "figure to regenerate (6)")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		cluster   = flag.Bool("cluster", false, "run the node-clustering extension task (NMI)")
		full      = flag.Bool("full", false, "use full-size networks and paper-like settings")
		seed      = flag.Int64("seed", 1, "random seed")
		dim       = flag.Int("dim", 0, "embedding dimensionality (default 32 quick / 64 full)")
		reps      = flag.Int("reps", 0, "classification repetitions (default 3 quick / 10 full)")
		points    = flag.String("points", "", "write Figure 6 coordinates as TSV to this file")
		workers   = flag.Int("workers", 2, "TransN worker-pool size (0 = all cores, 1 = serial); the default is the count results/ was generated with")
		timings   = flag.Bool("timings", false, "print wall-clock time per experiment")
		report    = flag.String("report", "", "write the run's telemetry report as JSON to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/diagnostics on this address while running")
		diagOut   = flag.String("diag", "", "attach the convergence monitor to every TransN training and write its diagnostics document (last training's loss curve) as JSON to this file")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *full {
		opts = experiments.FullOptions()
	}
	opts.Seed = *seed
	if *dim > 0 {
		opts.Dim = *dim
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	opts.Workers = *workers

	if !*all && *table == 0 && *figure == 0 && !*cluster {
		flag.Usage()
		os.Exit(2)
	}

	// The convergence monitor observes every TransN training the run
	// performs. It resets on each training's iteration 0, so the served
	// and written documents describe the most recent loss curve.
	var monitor *diag.Monitor
	if *diagOut != "" || *debugAddr != "" {
		monitor = diag.NewMonitor(nil, diag.MonitorOptions{})
		opts.Observer = monitor.Observe
	}
	tel := obs.NewRun()
	if *debugAddr != "" {
		srv, addr, err := tel.ServeDebug(*debugAddr,
			obs.Route{Pattern: "/debug/diagnostics", Handler: monitor})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: -debug-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", addr)
	}
	metrics := map[string]float64{}
	record := func(experiment string, rows []experiments.Row) {
		for _, r := range rows {
			for metric, v := range r.Metrics {
				metrics[experiment+"/"+r.Dataset+"/"+r.Method+"/"+metric] = v
			}
		}
	}

	run := func(name string, f func() error) {
		span := tel.Trace.Start(name)
		if err := f(); err != nil {
			span.End()
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", name, err)
			os.Exit(1)
		}
		d := span.End()
		if *timings {
			fmt.Printf("[%s took %v]\n", name, d.Round(time.Millisecond))
		}
		fmt.Println()
	}

	if *all || *table == 2 {
		run("table2", func() error {
			experiments.Table2(os.Stdout, opts)
			return nil
		})
	}
	if *all || *table == 3 {
		run("table3", func() error {
			rows, err := experiments.Table3(os.Stdout, opts)
			record("table3", rows)
			return err
		})
	}
	if *all || *table == 4 {
		run("table4", func() error {
			rows, err := experiments.Table4(os.Stdout, opts)
			record("table4", rows)
			return err
		})
	}
	if *all || *table == 5 {
		run("table5", func() error {
			rows, err := experiments.Table5(os.Stdout, opts)
			record("table5", rows)
			return err
		})
	}
	if *cluster {
		run("clustering", func() error {
			rows, err := experiments.TableClustering(os.Stdout, opts)
			record("clustering", rows)
			return err
		})
	}
	if *all || *figure == 6 {
		run("figure6", func() error {
			results, err := experiments.Figure6(os.Stdout, opts)
			if err != nil {
				return err
			}
			for _, r := range results {
				metrics["figure6/App-Daily/"+r.Method+"/Silhouette"] = r.Silhouette
				experiments.RenderScatter(os.Stdout,
					fmt.Sprintf("%s (silhouette %.4f)", r.Method, r.Silhouette),
					r.Points, r.Labels, 72, 24)
			}
			if *points != "" {
				f, err := os.Create(*points)
				if err != nil {
					return err
				}
				defer f.Close()
				experiments.WriteFigure6Points(f, results)
				fmt.Printf("  wrote coordinates to %s\n", *points)
			}
			return nil
		})
	}

	if *report != "" {
		rep := tel.Report("benchrun")
		if len(metrics) > 0 {
			rep.Metrics = metrics
		}
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: -report: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WriteReport(f, rep); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "benchrun: -report: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: -report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry report to %s\n", *report)
	}
	if *diagOut != "" {
		f, err := os.Create(*diagOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: -diag: %v\n", err)
			os.Exit(1)
		}
		if err := diag.Write(f, monitor.Document("benchrun")); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "benchrun: -diag: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: -diag: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote diagnostics to %s\n", *diagOut)
	}
}
