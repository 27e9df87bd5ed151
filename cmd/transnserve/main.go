// Command transnserve is the embedding-serving daemon: it loads a graph
// TSV plus a trained model — the transn.snap/v1 file written by `transn
// train -model` (mmap-loaded; reload is O(header)) — and serves
// final/per-view/translated/k-NN/inferred embeddings over HTTP until
// stopped. SIGHUP (or POST /admin/reload) hot-reloads the snapshot from
// the same paths without dropping a request; SIGINT and SIGTERM drain
// gracefully. Every /v1/knn answer is exact: one scan of the final
// table, with no index and no ef parameter; an ANN section in the
// file is optional and ignored.
// See API.md for the route reference and SNAPSHOT.md for the format.
//
// A translation is a pure function of the snapshot, so each
// (pair, direction, node) row is computed on its first request and kept
// in a per-snapshot table until the next reload; there is no cache size
// to configure.
//
// Every request is traced through its handling stages (decode,
// snapshot pin, row-table lookup, forward, encode); sampled and
// slow traces land in in-memory rings served at /debug/requests and
// /debug/slow as transn.trace.serve/v1 dumps, and -log emits
// structured JSON access/slow log lines. -trace-rate -1 disables
// tracing entirely (the disabled path allocates nothing).
//
// A metrics flight recorder samples the registry into two
// fixed-capacity rings (1s×300 by default, and 10s×360) served at
// /debug/history as transn.history/v1 dumps (`transn watch` renders
// them live). -watchdog-rules loads declarative SLO burn-rate rules
// evaluated over those windows; a tripped rule WARNs, flips the
// /readyz degraded detail, and — with -anomaly-dir — captures a
// bounded-retention anomaly bundle (heap + goroutine profiles, history
// and slow-ring dumps).
//
// Usage:
//
//	transnserve -graph network.tsv -model model.snap [-addr :8080] \
//	    [-trace-rate 64] [-trace-ring 256] [-slow-threshold 250ms] \
//	    [-log] [-history-fine 1s] \
//	    [-watchdog-rules rules.json] [-watchdog-interval 1s] \
//	    [-anomaly-dir dir]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"transn/internal/obs"
	"transn/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "transnserve:", err)
		os.Exit(1)
	}
}

// options holds the parsed transnserve flags: the serve.Config fields a
// flag sets directly, plus the ones run turns into config values.
type options struct {
	serve.Config
	addr       string
	logJSON    bool
	watchRules string
}

// newFlagSet registers every transnserve flag, bound to o's fields.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("transnserve", flag.ExitOnError)
	fs.StringVar(&o.GraphPath, "graph", "", "network TSV the model was trained on (required)")
	fs.StringVar(&o.ModelPath, "model", "", "trained model (transn.snap/v1) from `transn train -model` (required)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; :0 picks a free port)")
	fs.IntVar(&o.TraceSampleRate, "trace-rate", 0, "sample every Nth request after the first 64 (0 = default 64, 1 = all, negative disables tracing entirely)")
	fs.IntVar(&o.TraceRingSize, "trace-ring", 0, "sampled-trace ring capacity served at /debug/requests (0 = default 256)")
	fs.DurationVar(&o.TraceSlowThreshold, "slow-threshold", 0, "requests at or above this duration are always kept and logged as slow (0 = default 250ms, negative disables)")
	fs.BoolVar(&o.logJSON, "log", false, "emit structured JSON access/slow log lines on stderr")
	fs.DurationVar(&o.HistoryFineInterval, "history-fine", 0, "fine history sampling interval (0 = default 1s, negative disables the recorder)")
	fs.StringVar(&o.watchRules, "watchdog-rules", "", "SLO burn-rate rules JSON file; tripped rules WARN and flip the /readyz degraded detail")
	fs.DurationVar(&o.WatchInterval, "watchdog-interval", 0, "watchdog evaluation period (0 = default 1s)")
	fs.StringVar(&o.AnomalyDir, "anomaly-dir", "", "directory for anomaly bundles captured when a watchdog rule trips (empty disables capture)")
	return fs
}

func run(args []string) error {
	var o options
	newFlagSet(&o).Parse(args)
	if o.GraphPath == "" || o.ModelPath == "" {
		return fmt.Errorf("-graph and -model are required")
	}
	cfg := o.Config
	cfg.TraceDisabled = o.TraceSampleRate < 0
	cfg.HistoryDisabled = o.HistoryFineInterval < 0
	if o.logJSON {
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if o.watchRules != "" {
		data, err := os.ReadFile(o.watchRules)
		if err != nil {
			return fmt.Errorf("reading -watchdog-rules: %w", err)
		}
		cfg.WatchRules, err = obs.ParseWatchRules(data)
		if err != nil {
			return err
		}
	}
	sv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	bound, err := sv.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "transnserve: serving generation %d on %s\n", sv.Generation(), bound)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for sig := range sigs {
		switch sig {
		case syscall.SIGHUP:
			start := time.Now()
			if err := sv.Reload(); err != nil {
				// A failed reload keeps the previous snapshot live;
				// report and keep serving.
				fmt.Fprintf(os.Stderr, "transnserve: reload failed (still serving generation %d): %v\n",
					sv.Generation(), err)
				continue
			}
			fmt.Fprintf(os.Stderr, "transnserve: reloaded to generation %d in %s\n",
				sv.Generation(), time.Since(start).Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "transnserve: %v received, draining\n", sig)
			return sv.Shutdown()
		}
	}
	return nil
}
