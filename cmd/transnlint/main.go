// Command transnlint runs the repo's custom static analyzers
// (internal/lint) over the whole module and reports findings with
// stable codes: determinism (global rand, wall-clock seeds, map
// iteration order), schema-registry consistency, doc coverage of the
// exported API surface (doccheck), goroutine/ticker lifecycle, and
// lock ordering, release balance and typed atomics. See DESIGN.md §9.
//
// Usage:
//
//	transnlint [-C dir] [-json] [-name NAME] [./...]
//
// Without -json, findings print one per line as file:line:col:
// [code] message. With -json, the schema-stable transn.lint/v1
// document is written to stdout (validate it with `transn checkreport
// -report lint.json`). The exit status is 0 when the tree is clean, 1
// when there are findings, 2 on a load or usage error — so CI can gate
// on it directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"transn/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("transnlint", flag.ExitOnError)
	dir := fs.String("C", ".", "module directory to lint (any directory inside the module)")
	jsonOut := fs.Bool("json", false, "write the transn.lint/v1 document to stdout")
	name := fs.String("name", "transnlint", "document name")
	fs.Parse(os.Args[1:])

	// The only supported pattern is the whole module; accept ./... (and
	// nothing) so the invocation reads like a go tool.
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "transnlint: unsupported pattern %q (only ./... — the analyzers are whole-module)\n", arg)
			os.Exit(2)
		}
	}

	mod, err := lint.LoadRepo(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "transnlint: %v\n", err)
		os.Exit(2)
	}
	doc := lint.Run(mod, lint.Defaults(), lint.Analyzers(), *name)

	if *jsonOut {
		if err := lint.Write(os.Stdout, doc); err != nil {
			fmt.Fprintf(os.Stderr, "transnlint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range doc.Findings {
			fmt.Fprintln(os.Stderr, f)
		}
	} else {
		for _, f := range doc.Findings {
			fmt.Println(f)
		}
	}
	if len(doc.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "transnlint: %d finding(s) across %d packages\n", len(doc.Findings), doc.Packages)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "transnlint: clean (%d packages, %d suppression(s) in use)\n", doc.Packages, doc.Suppressions)
}
