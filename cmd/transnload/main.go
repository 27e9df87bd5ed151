// Command transnload is the open-loop load generator for transnserve:
// it derives a valid request pool from the network TSV the served model
// was trained on, fires a Poisson arrival stream of mixed
// embedding/translate/knn/infer requests at a target rate, optionally
// hot-reloads the server mid-run, and writes a schema-stable
// transn.bench.serve/v1 report with per-endpoint latency quantiles,
// achieved vs offered rate, and error accounting. With -gate it checks
// the report against declared SLO budgets and exits non-zero on any
// violation — CI's serving regression gate.
//
// Usage:
//
//	transnload -target http://127.0.0.1:8080 -graph network.tsv \
//	    [-rate 200] [-duration 10s] [-warmup 2s] \
//	    [-mix embedding=4,translate=3,knn=2,infer=1] [-seed 1] \
//	    [-reloads 0] [-report bench.json] [-gate slo.json] [-name load]
//
// CI's knn p99 gate runs the knn-heavy mix
// -mix knn=8,embedding=1,translate=1: the exact /v1/knn scan (no
// index, no ef parameter) with a light embedding/translate background
// that keeps the translate row table warm.
//
// Every request carries a deterministic X-Transn-Request-Id and has a
// 10s client timeout; after the run the harness fetches the server's
// /debug/requests and /debug/slow trace rings and joins them against
// its own 10 slowest observations, so the report's tail section
// attributes p99 latency to server-side stages (decode, row-table
// lookup, forward pass, ...).
//
// Exit status: 0 on a clean run (and a passing gate), 1 on harness
// errors, 2 on gate violations.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"transn/internal/graph"
	"transn/internal/load"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "transnload:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("transnload", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the transnserve instance under test (required)")
	graphPath := fs.String("graph", "", "network TSV the served model was trained on (required; request pool source)")
	rate := fs.Float64("rate", 200, "offered open-loop arrival rate, requests/second")
	duration := fs.Duration("duration", 10*time.Second, "measured window length")
	warmup := fs.Duration("warmup", 2*time.Second, "initial window excluded from the report")
	mixFlag := fs.String("mix", "", "endpoint weights, e.g. embedding=4,translate=3,knn=2,infer=1 (default that mix)")
	seed := fs.Int64("seed", 1, "workload seed; a fixed seed replays the identical request stream")
	reloads := fs.Int("reloads", 0, "POST /admin/reload this many times, evenly spaced across the measured window")
	reportOut := fs.String("report", "", "write the transn.bench.serve/v1 report JSON to this path (- or empty: stdout)")
	gatePath := fs.String("gate", "", "SLO budget JSON; violations print to stderr and exit 2")
	name := fs.String("name", "load", "run name recorded in the report")
	fs.Parse(args)
	if *target == "" || *graphPath == "" {
		return 1, fmt.Errorf("-target and -graph are required")
	}

	mix := load.DefaultMix()
	if *mixFlag != "" {
		m, err := load.ParseMix(*mixFlag)
		if err != nil {
			return 1, err
		}
		mix = m
	}
	var gate *load.Gate
	if *gatePath != "" {
		data, err := os.ReadFile(*gatePath)
		if err != nil {
			return 1, err
		}
		gate, err = load.ParseGate(data)
		if err != nil {
			return 1, err
		}
	}

	gf, err := os.Open(*graphPath)
	if err != nil {
		return 1, err
	}
	g, err := graph.Load(gf)
	gf.Close()
	if err != nil {
		return 1, err
	}
	inv, err := load.NewInventory(g)
	if err != nil {
		return 1, err
	}

	fmt.Fprintf(os.Stderr, "transnload: offering %.1f req/s (%s) to %s for %s (+%s warmup, %d reloads)\n",
		*rate, mix, *target, *duration, *warmup, *reloads)
	rep, err := load.Run(load.Profile{
		Target:   *target,
		Rate:     *rate,
		Duration: *duration,
		Warmup:   *warmup,
		Mix:      mix,
		Seed:     *seed,
		Reloads:  *reloads,
		Name:     *name,
	}, inv)
	if err != nil {
		return 1, err
	}

	out := os.Stdout
	if *reportOut != "" && *reportOut != "-" {
		f, err := os.Create(*reportOut)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		out = f
	}
	if err := load.WriteReport(out, rep); err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "transnload: %d sent, %d errors, achieved %.1f/%.1f req/s, %d/%d reloads ok\n",
		rep.Sent, rep.Errors, rep.AchievedRate, rep.OfferedRate, rep.ReloadsOK, rep.Reloads)
	if rep.Tail != nil {
		if rep.Tail.Joined > 0 {
			fmt.Fprintf(os.Stderr, "transnload: tail: %d/%d slowest requests joined to server traces, dominant stage: %s\n",
				rep.Tail.Joined, len(rep.Tail.Requests), rep.Tail.DominantStage)
		} else {
			fmt.Fprintf(os.Stderr, "transnload: tail: no server traces joined (is tracing enabled on the target?)\n")
		}
	}

	if gate != nil {
		if violations := gate.Check(rep); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "transnload: SLO violation:", v)
			}
			return 2, fmt.Errorf("%d SLO violation(s)", len(violations))
		}
		fmt.Fprintln(os.Stderr, "transnload: all SLO budgets met")
	}
	return 0, nil
}
