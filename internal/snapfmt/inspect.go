package snapfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// InspectSchema identifies the `transn snapshot inspect -json`
// document, validated by `transn checkreport`.
const InspectSchema = "transn.snap.inspect/v1"

// Inspect is the schema-stable description of a .snap file: the header
// facts, the section directory, and the model shape — everything an
// operator needs to sanity-check a snapshot without loading a graph.
// SNAPSHOT.md §11 walks through an example.
type Inspect struct {
	// Schema is always InspectSchema.
	Schema string `json:"schema"`
	// Version is the format version (§2.2).
	Version int `json:"version"`
	// SizeBytes is the whole-file length, trailer included.
	SizeBytes int64 `json:"size_bytes"`
	// Checksum is the CRC64-ECMA trailer (§9), in hex.
	Checksum string `json:"checksum"`
	// Nodes, Views, Pairs and Dim are the model shape from the config
	// section (§4).
	Nodes int `json:"nodes"`
	Views int `json:"views"`
	Pairs int `json:"pairs"`
	Dim   int `json:"dim"`
	// HasANN reports whether an ANN section (§8) is present. Readers
	// ignore its contents.
	HasANN bool `json:"has_ann"`
	// Sections is the directory in file order (§2.5).
	Sections []InspectSection `json:"sections"`
}

// InspectSection is one directory row in an Inspect document.
type InspectSection struct {
	// Kind is the section kind's spec name (config, names, final,
	// view_in, view_out, trans, ann).
	Kind string `json:"kind"`
	// Arg is the kind-specific argument (view index; 0 otherwise).
	Arg uint32 `json:"arg"`
	// Offset and Length are the payload's byte range.
	Offset uint64 `json:"offset"`
	Length uint64 `json:"length"`
}

// Describe summarizes an open snapshot as an Inspect document.
func (s *Snapshot) Describe() Inspect {
	doc := Inspect{
		Schema:    InspectSchema,
		Version:   Version,
		SizeBytes: int64(len(s.data)),
		Checksum:  fmt.Sprintf("%016x", binary.LittleEndian.Uint64(s.data[len(s.data)-TrailerSize:])),
		Nodes:     s.nodes,
		Views:     s.views,
		Pairs:     s.pairs,
		Dim:       s.cfg.Dim,
	}
	for _, sec := range s.sections {
		doc.HasANN = doc.HasANN || sec.Kind == KindANN
		doc.Sections = append(doc.Sections, InspectSection{
			Kind:   sec.Kind.String(),
			Arg:    sec.Arg,
			Offset: sec.Offset,
			Length: sec.Length,
		})
	}
	return doc
}

// validKinds mirrors SectionKind.String for inspection documents.
var validKinds = []string{"config", "names", "final", "view_in", "view_out", "trans", "ann"}

// ValidateInspect checks a serialized Inspect document for schema and
// structural sanity; it is the `transn checkreport` hook for this
// document kind.
func ValidateInspect(data []byte) error {
	var doc Inspect
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("snap inspect: %w", err)
	}
	if doc.Schema != InspectSchema {
		return fmt.Errorf("snap inspect: schema %q, want %q", doc.Schema, InspectSchema)
	}
	if doc.Version != Version {
		return fmt.Errorf("snap inspect: version %d, want %d", doc.Version, Version)
	}
	if doc.SizeBytes < HeaderSize+TrailerSize {
		return fmt.Errorf("snap inspect: size %d below the format minimum", doc.SizeBytes)
	}
	if len(doc.Checksum) != 16 {
		return fmt.Errorf("snap inspect: checksum %q is not 16 hex digits", doc.Checksum)
	}
	if doc.Nodes <= 0 || doc.Views <= 0 || doc.Pairs < 0 || doc.Dim <= 0 {
		return fmt.Errorf("snap inspect: implausible shape: nodes=%d views=%d pairs=%d dim=%d",
			doc.Nodes, doc.Views, doc.Pairs, doc.Dim)
	}
	if len(doc.Sections) == 0 {
		return fmt.Errorf("snap inspect: no sections")
	}
	sawANN := false
	for i, sec := range doc.Sections {
		ok := false
		for _, k := range validKinds {
			if sec.Kind == k {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("snap inspect: section %d has unknown kind %q", i, sec.Kind)
		}
		if sec.Offset%Align != 0 {
			return fmt.Errorf("snap inspect: section %d offset %d not %d-aligned", i, sec.Offset, Align)
		}
		if sec.Offset+sec.Length > uint64(doc.SizeBytes) {
			return fmt.Errorf("snap inspect: section %d overruns the recorded file size", i)
		}
		if sec.Kind == "ann" {
			sawANN = true
		}
	}
	if sawANN != doc.HasANN {
		return fmt.Errorf("snap inspect: has_ann=%v disagrees with the section list", doc.HasANN)
	}
	return nil
}
