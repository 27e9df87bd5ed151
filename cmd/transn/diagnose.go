package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"transn/internal/diag"
	"transn/internal/snapfmt"
)

// cmdDiagnose loads a saved TransN model (train -model) plus its
// network and runs the internal/diag analyzers over it: embedding and
// translator health, walk-corpus coverage under the model's own walk
// configuration, and — when a recorded event stream is supplied —
// convergence. The JSON document goes to -output (stdout by default),
// a human-readable digest to stdout with -summary, and the exit status
// is non-zero when any error-severity finding is present.
func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	input := fs.String("input", "", "network TSV the model was trained on (required)")
	modelPath := fs.String("model", "", "saved TransN model from `train -model` (required)")
	output := fs.String("output", "", "write the diagnostics JSON here (default stdout; omitted when -summary is set and no path is given)")
	summary := fs.Bool("summary", false, "print a human-readable digest to stdout instead of (or alongside -output) the JSON")
	events := fs.String("events", "", "recorded `train -events` JSONL to replay for convergence analysis (saved models carry no loss history)")
	corpusSeed := fs.Int64("corpus-seed", 1, "seed for the diagnostic walk corpora")
	noCorpus := fs.Bool("no-corpus", false, "skip the walk-coverage analyzer (cheapest run: model health only)")
	coverageWarn := fs.Float64("coverage-warn", 0.95, "per-view coverage ratio below which a corpus.coverage warning fires")
	workers := fs.Int("workers", 0, "worker-pool size for corpus generation (0 = the model's trained setting)")
	fs.Parse(args)
	if *input == "" || *modelPath == "" {
		return fmt.Errorf("diagnose: -input and -model are required")
	}
	g, err := loadGraph(*input)
	if err != nil {
		return err
	}
	snap, err := snapfmt.Open(*modelPath, snapfmt.OpenOptions{})
	if err != nil {
		return fmt.Errorf("diagnose: loading %s: %w", *modelPath, err)
	}
	// The model's tables alias the mapping; it stays open until the
	// analyzers are done.
	defer snap.Close()
	model, err := snap.Model(g)
	if err != nil {
		return fmt.Errorf("diagnose: loading %s: %w", *modelPath, err)
	}

	doc := diag.Analyze(model, diag.Options{
		Name:         "diagnose",
		SkipCorpus:   *noCorpus,
		CorpusSeed:   *corpusSeed,
		Workers:      *workers,
		CoverageWarn: *coverageWarn,
	})
	if *events != "" {
		ef, err := os.Open(*events)
		if err != nil {
			return err
		}
		conv, fs, rerr := diag.ReplayEvents(ef, diag.MonitorOptions{})
		ef.Close()
		if rerr != nil {
			return fmt.Errorf("diagnose: -events: %w", rerr)
		}
		doc.Convergence = conv
		doc.Add(fs...)
	}

	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		if err := diag.Write(f, doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		infof("wrote diagnostics to %s\n", *output)
	} else if !*summary {
		if err := diag.Write(os.Stdout, doc); err != nil {
			return err
		}
	}
	if *summary {
		printDiagSummary(doc)
	}
	return doc.Err()
}

func printDiagSummary(doc *diag.Document) {
	verdict := "HEALTHY"
	if !doc.Healthy {
		verdict = "UNHEALTHY"
	}
	var nErr, nWarn, nInfo int
	for _, f := range doc.Findings {
		switch f.Severity {
		case diag.SeverityError:
			nErr++
		case diag.SeverityWarning:
			nWarn++
		default:
			nInfo++
		}
	}
	fmt.Printf("diagnostics: %s (%d errors, %d warnings, %d infos)\n", verdict, nErr, nWarn, nInfo)
	if doc.Model != nil {
		for _, vh := range doc.Model.Views {
			fmt.Printf("view %d: nodes=%d nan=%d inf=%d norm=[%.3g %.3g %.3g] collapsed=%d eff-dims=%.1f/%d\n",
				vh.View, vh.Nodes, vh.NaN, vh.Inf, vh.NormMin, vh.NormMean, vh.NormMax,
				vh.CollapsedDims, vh.EffectiveDims, doc.Model.Dim)
		}
		for _, th := range doc.Model.Translators {
			fmt.Printf("pair %d (views %d<->%d): segments=%d translation-mse=%.3f/%.3f round-trip-mse=%.3f/%.3f\n",
				th.Pair, th.I, th.J, th.Segments,
				th.TranslationMSE[0], th.TranslationMSE[1], th.RoundTripMSE[0], th.RoundTripMSE[1])
		}
	}
	for _, cov := range doc.Corpus {
		kind := "homo"
		if cov.Hetero {
			kind = "heter"
		}
		fmt.Printf("corpus view %d (%s): coverage=%.1f%% entropy=%.3f pairs-w1=%d pairs-w2=%d bias-ratio=%.3f\n",
			cov.View, kind, 100*cov.Coverage, cov.VisitEntropy,
			cov.ContextPairsW1, cov.ContextPairsW2, cov.BiasRatio)
	}
	if c := doc.Convergence; c != nil {
		plateau := "-"
		if c.PlateauAt >= 0 {
			plateau = fmt.Sprintf("%d", c.PlateauAt)
		}
		fmt.Printf("convergence: %d iterations, final single=%.4g cross=%.4g, plateau-at=%s diverged=%v non-finite=%v\n",
			c.Iterations, c.FinalSingle, c.FinalCross, plateau, c.Diverged, c.NonFinite)
	}
	if len(doc.Findings) > 0 {
		fmt.Println("findings:")
		for _, f := range doc.Findings {
			var scope []string
			if f.View >= 0 {
				scope = append(scope, fmt.Sprintf("view %d", f.View))
			}
			if f.Pair >= 0 {
				scope = append(scope, fmt.Sprintf("pair %d", f.Pair))
			}
			loc := ""
			if len(scope) > 0 {
				loc = " (" + strings.Join(scope, ", ") + ")"
			}
			fmt.Printf("  [%s] %s%s: %s\n", f.Severity, f.Code, loc, f.Message)
		}
	}
}
