// Command transnserve is the embedding-serving daemon: it loads a graph
// TSV plus a trained model — the transn.snap/v1 file written by `transn
// train -model` (mmap-loaded; reload is O(header)) — and serves
// final/per-view/translated/k-NN/inferred embeddings over HTTP until
// stopped. SIGHUP (or POST /admin/reload) hot-reloads the snapshot from
// the same paths without dropping a request; SIGINT and SIGTERM drain
// gracefully. /v1/knn answers through a deterministic HNSW index,
// decoded from the file's ANN section (or built at load, with the
// default parameters, for files without one), and exact=true per
// request falls back to the brute scan.
// See API.md for the route reference and SNAPSHOT.md for the format.
//
// Every request is traced through its handling stages (decode,
// snapshot pin, cache, coalesce wait, forward, encode); sampled and
// slow traces land in in-memory rings served at /debug/requests and
// /debug/slow as transn.trace.serve/v1 dumps, and -log emits
// structured JSON access/slow log lines. -trace-rate -1 disables
// tracing entirely (the disabled path allocates nothing).
//
// A metrics flight recorder samples the registry into two
// fixed-capacity rings (default 1s×300 and 10s×360) served at
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
//	    [-trace-head 64] [-trace-rate 64] [-trace-ring 256] \
//	    [-slow-ring 64] [-slow-threshold 250ms] [-log] \
//	    [-history-fine 1s] [-history-fine-ring 300] \
//	    [-history-coarse 10s] [-history-coarse-ring 360] \
//	    [-watchdog-rules rules.json] [-watchdog-interval 1s] \
//	    [-anomaly-dir dir] [-anomaly-keep 8] [-anomaly-cooldown 30s] \
//	    [-runtime-poll 5s]
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

func run(args []string) error {
	fs := flag.NewFlagSet("transnserve", flag.ExitOnError)
	graphPath := fs.String("graph", "", "network TSV the model was trained on (required)")
	modelPath := fs.String("model", "", "trained model (transn.snap/v1) from `transn train -model` (required)")
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	cacheSize := fs.Int("cache", 0, "LRU capacity for computed vectors (0 = default 4096, negative disables)")
	workers := fs.Int("translate-workers", 0, "max concurrent translator/inference computations (0 = default 4)")
	timeout := fs.Duration("timeout", 0, "per-request deadline for /v1 endpoints (0 = default 10s)")
	drain := fs.Duration("drain", 0, "max wait for in-flight requests on shutdown (0 = default 10s)")
	maxK := fs.Int("maxk", 0, "cap on the k parameter of /v1/knn (0 = default 100)")
	traceHead := fs.Int("trace-head", 0, "always sample the first N requests (0 = default 64, negative disables head sampling)")
	traceRate := fs.Int("trace-rate", 0, "sample every Nth request after the head (0 = default 64, 1 = all, negative disables tracing entirely)")
	traceRing := fs.Int("trace-ring", 0, "sampled-trace ring capacity served at /debug/requests (0 = default 256)")
	slowRing := fs.Int("slow-ring", 0, "slow-trace ring capacity served at /debug/slow (0 = default 64)")
	slowThreshold := fs.Duration("slow-threshold", 0, "requests at or above this duration are always kept and logged as slow (0 = default 250ms, negative disables)")
	logJSON := fs.Bool("log", false, "emit structured JSON access/slow log lines on stderr")
	historyFine := fs.Duration("history-fine", 0, "fine history sampling interval (0 = default 1s, negative disables the recorder)")
	historyFineRing := fs.Int("history-fine-ring", 0, "fine history ring capacity (0 = default 300)")
	historyCoarse := fs.Duration("history-coarse", 0, "coarse history sampling interval (0 = default 10s)")
	historyCoarseRing := fs.Int("history-coarse-ring", 0, "coarse history ring capacity (0 = default 360)")
	watchRules := fs.String("watchdog-rules", "", "SLO burn-rate rules JSON file; tripped rules WARN and flip the /readyz degraded detail")
	watchInterval := fs.Duration("watchdog-interval", 0, "watchdog evaluation period (0 = default 1s)")
	anomalyDir := fs.String("anomaly-dir", "", "directory for anomaly bundles captured when a watchdog rule trips (empty disables capture)")
	anomalyKeep := fs.Int("anomaly-keep", 0, "max anomaly bundles retained, oldest deleted first (0 = default 8)")
	anomalyCooldown := fs.Duration("anomaly-cooldown", 0, "min spacing between anomaly captures (0 = default 30s)")
	runtimePoll := fs.Duration("runtime-poll", 0, "runtime health gauge polling interval (0 = default 5s, negative disables)")
	fs.Parse(args)
	if *graphPath == "" || *modelPath == "" {
		return fmt.Errorf("-graph and -model are required")
	}

	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	var rules *obs.WatchConfig
	if *watchRules != "" {
		data, err := os.ReadFile(*watchRules)
		if err != nil {
			return fmt.Errorf("reading -watchdog-rules: %w", err)
		}
		rules, err = obs.ParseWatchRules(data)
		if err != nil {
			return err
		}
	}
	sv, err := serve.New(serve.Config{
		GraphPath:             *graphPath,
		ModelPath:             *modelPath,
		CacheSize:             *cacheSize,
		TranslateWorkers:      *workers,
		RequestTimeout:        *timeout,
		DrainTimeout:          *drain,
		MaxK:                  *maxK,
		TraceDisabled:         *traceRate < 0,
		TraceSampleHead:       *traceHead,
		TraceSampleRate:       *traceRate,
		TraceRingSize:         *traceRing,
		TraceSlowRingSize:     *slowRing,
		TraceSlowThreshold:    *slowThreshold,
		Logger:                logger,
		RuntimePollInterval:   *runtimePoll,
		HistoryDisabled:       *historyFine < 0,
		HistoryFineInterval:   *historyFine,
		HistoryFineRing:       *historyFineRing,
		HistoryCoarseInterval: *historyCoarse,
		HistoryCoarseRing:     *historyCoarseRing,
		WatchRules:            rules,
		WatchInterval:         *watchInterval,
		AnomalyDir:            *anomalyDir,
		AnomalyKeep:           *anomalyKeep,
		AnomalyCooldown:       *anomalyCooldown,
	})
	if err != nil {
		return err
	}
	bound, err := sv.Start(*addr)
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
