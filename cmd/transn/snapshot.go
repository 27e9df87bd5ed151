package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// cmdSnapshot dispatches the snapshot subcommand's verbs. The only
// verb is inspect (validate + describe a .snap file); model files are
// written by `transn train -model`.
func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot: a verb is required: inspect")
	}
	switch args[0] {
	case "inspect":
		return cmdSnapshotInspect(args[1:])
	default:
		return fmt.Errorf("snapshot: unknown verb %q (want inspect)", args[0])
	}
}

// writeModel saves a trained model to path as a transn.snap/v1 file
// without an ANN section: the server answers k-NN by an exact scan. The
// write is atomic (snapfmt.WriteFile), so a server serving path can be
// pointed at the new model with a reload while the old one is still
// mapped.
func writeModel(path string, m *transn.Model) error {
	src, err := snapfmt.FromModel(m, m.Graph)
	if err != nil {
		return err
	}
	return snapfmt.WriteFile(path, src)
}

// cmdSnapshotInspect opens a .snap file — running the format's full
// fail-closed validation (SNAPSHOT.md) — and prints its shape and
// section directory; -json emits the transn.snap.inspect/v1 document.
func cmdSnapshotInspect(args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ExitOnError)
	path := fs.String("snapshot", "", ".snap file to inspect (required)")
	asJSON := fs.Bool("json", false, "emit the transn.snap.inspect/v1 JSON document")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("snapshot inspect: -snapshot is required")
	}
	s, err := snapfmt.Open(*path, snapfmt.OpenOptions{NoMmap: true})
	if err != nil {
		return err
	}
	defer s.Close()
	doc := s.Describe()
	if *asJSON {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("%s: transn.snap/v%d, %d bytes, checksum %s\n", *path, doc.Version, doc.SizeBytes, doc.Checksum)
	fmt.Printf("  shape: %d nodes, %d views, %d translator pairs, dim %d, ann=%v\n",
		doc.Nodes, doc.Views, doc.Pairs, doc.Dim, doc.HasANN)
	fmt.Printf("  %-10s %5s %10s %10s\n", "section", "arg", "offset", "length")
	for _, sec := range doc.Sections {
		fmt.Printf("  %-10s %5d %10d %10d\n", sec.Kind, sec.Arg, sec.Offset, sec.Length)
	}
	return nil
}
