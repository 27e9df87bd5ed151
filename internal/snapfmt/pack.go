package snapfmt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/transn"
)

// configSize is the fixed length of the config section (§4): 15 i64/u64
// fields, 2 f64 fields, 8 flag bytes.
const configSize = 15*8 + 2*8 + 8

// Source is everything Pack writes into a .snap file. Build one with
// FromModel, or assemble it by hand in tests.
type Source struct {
	// Export is the model's learned state (tables and translators).
	Export transn.Export
	// NodeNames lists every node name in global-id order; it becomes
	// the names section (§5) and is validated against the serving
	// graph at load time.
	NodeNames []string
	// Final is the precomputed final averaged embedding table (§6),
	// stored so loaders never re-materialize it.
	Final *mat.Dense
	// ANN is an optional serialized HNSW graph (§8), opaque to this
	// package (internal/ann owns its layout). Readers ignore it.
	ANN []byte
}

// FromModel captures a trained model as a pack source: its export, the
// graph's node names, and a freshly averaged final table. The model is
// swept for non-finite values first — a .snap file is finite by
// construction (§1), which is what lets snap loaders skip the sweep.
func FromModel(m *transn.Model, g *graph.Graph) (*Source, error) {
	if err := m.CheckFinite(); err != nil {
		return nil, fmt.Errorf("snapfmt: refusing to pack a non-finite model: %w", err)
	}
	names := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		names = append(names, n.Name)
	}
	return &Source{Export: m.Export(), NodeNames: names, Final: m.Embeddings()}, nil
}

func matrixLen(m *mat.Dense) uint64 {
	return 16 + uint64(m.R)*uint64(m.C)*8
}

func putMatrix(b []byte, m *mat.Dense) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.R))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.C))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(b[16+i*8:], math.Float64bits(v))
	}
}

// Pack lays out src as a transn.snap/v1 file and writes it to w. The
// output is a pure function of src: packing the same source twice
// yields byte-identical files (§1). The whole file is assembled in
// memory (packing is an offline operation; serving never packs).
func Pack(w io.Writer, src *Source) error {
	if src.Final == nil {
		return fmt.Errorf("snapfmt: pack source has no final table")
	}
	if len(src.NodeNames) != src.Final.R {
		return fmt.Errorf("snapfmt: %d node names for %d final rows", len(src.NodeNames), src.Final.R)
	}
	if len(src.Export.EmbIn) != len(src.Export.EmbOut) {
		return fmt.Errorf("snapfmt: %d in-tables but %d out-tables", len(src.Export.EmbIn), len(src.Export.EmbOut))
	}
	// First pass: the section list with lengths.
	namesLen := uint64(16 + (len(src.NodeNames)+1)*4)
	namesLen += pad8(namesLen)
	blobLen := uint64(0)
	for _, n := range src.NodeNames {
		blobLen += uint64(len(n))
	}
	namesLen += blobLen
	sections := []Section{
		{Kind: KindConfig, Length: configSize},
		{Kind: KindNames, Length: namesLen},
		{Kind: KindFinal, Length: matrixLen(src.Final)},
	}
	for vi := range src.Export.EmbIn {
		in, out := src.Export.EmbIn[vi], src.Export.EmbOut[vi]
		if in == nil {
			continue // empty view: no sections (§6)
		}
		if out == nil {
			return fmt.Errorf("snapfmt: view %d has an in-table but no out-table", vi)
		}
		sections = append(sections,
			Section{Kind: KindViewIn, Arg: uint32(vi), Length: matrixLen(in)},
			Section{Kind: KindViewOut, Arg: uint32(vi), Length: matrixLen(out)},
		)
	}
	if len(src.Export.TransW) > 0 {
		tl := uint64(8 + len(src.Export.TransW)*32)
		for p := range src.Export.TransW {
			for side := 0; side < 2; side++ {
				if len(src.Export.TransW[p][side]) != len(src.Export.TransB[p][side]) {
					return fmt.Errorf("snapfmt: pair %d side %d has %d weights but %d biases",
						p, side, len(src.Export.TransW[p][side]), len(src.Export.TransB[p][side]))
				}
				for _, wm := range src.Export.TransW[p][side] {
					tl += matrixLen(wm)
				}
				for _, bm := range src.Export.TransB[p][side] {
					tl += matrixLen(bm)
				}
			}
		}
		sections = append(sections, Section{Kind: KindTrans, Length: tl})
	}
	if len(src.ANN) > 0 {
		sections = append(sections, Section{Kind: KindANN, Length: uint64(len(src.ANN))})
	}
	// Assign offsets. HeaderSize and DirEntrySize are both multiples of
	// Align, so the first section lands aligned and padding keeps the
	// rest aligned (§3.2).
	cur := uint64(HeaderSize) + uint64(len(sections))*DirEntrySize
	for i := range sections {
		sections[i].Offset = cur
		cur += sections[i].Length + pad8(sections[i].Length)
	}
	total := cur + TrailerSize
	buf := make([]byte, total)
	// Header (§2) and directory (§2.5).
	copy(buf[0:8], Magic)
	binary.LittleEndian.PutUint32(buf[8:12], Version)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(sections)))
	binary.LittleEndian.PutUint32(buf[20:24], HeaderSize)
	binary.LittleEndian.PutUint64(buf[24:32], total)
	for i, s := range sections {
		e := buf[HeaderSize+i*DirEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], uint32(s.Kind))
		binary.LittleEndian.PutUint32(e[4:8], s.Arg)
		binary.LittleEndian.PutUint64(e[8:16], s.Offset)
		binary.LittleEndian.PutUint64(e[16:24], s.Length)
	}
	// Payloads.
	for _, s := range sections {
		b := buf[s.Offset : s.Offset+s.Length]
		switch s.Kind {
		case KindConfig:
			packConfig(b, src)
		case KindNames:
			packNames(b, src.NodeNames, blobLen)
		case KindFinal:
			putMatrix(b, src.Final)
		case KindViewIn:
			putMatrix(b, src.Export.EmbIn[s.Arg])
		case KindViewOut:
			putMatrix(b, src.Export.EmbOut[s.Arg])
		case KindTrans:
			packTrans(b, &src.Export)
		case KindANN:
			copy(b, src.ANN)
		}
	}
	binary.LittleEndian.PutUint64(buf[total-TrailerSize:], Checksum(buf[:total-TrailerSize]))
	_, err := w.Write(buf)
	return err
}

// WriteFile packs src to path atomically: the bytes go to a temporary
// file in path's directory, which is fsynced and then renamed over
// path, and the directory is fsynced so the rename survives a crash.
// Rewriting path in place instead would change the pages of every
// open mapping of the old file — the live generation of a server that
// is about to reload it. After the rename, existing mappings keep the
// old inode and new opens see the new file; a failed or interrupted
// write leaves path untouched. The file gets the permissions os.Create
// would leave: those of the file it replaces, else 0666 less the umask.
func WriteFile(path string, src *Source) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := createTemp(dir, base)
	if err != nil {
		return fmt.Errorf("snapfmt: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := Pack(tmp, src); err != nil {
		return err
	}
	if fi, statErr := os.Stat(path); statErr == nil {
		if err := tmp.Chmod(fi.Mode().Perm()); err != nil {
			return fmt.Errorf("snapfmt: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("snapfmt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapfmt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapfmt: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapfmt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapfmt: syncing %s: %w", dir, err)
	}
	return nil
}

// createTemp makes a new file beside the target. Unlike os.CreateTemp
// (always 0600) it asks for 0666, so the umask decides the mode, as it
// does for os.Create.
func createTemp(dir, base string) (*os.File, error) {
	for i := 0; i < 10000; i++ {
		name := filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d", base, os.Getpid(), i))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !os.IsExist(err) {
			return f, err
		}
	}
	return nil, fmt.Errorf("no free temporary name for %s in %s", base, dir)
}

// packConfig encodes the fixed config section (§4).
func packConfig(b []byte, src *Source) {
	c := src.Export.Cfg
	ints := []int64{
		int64(c.Dim), int64(c.WalkLength), int64(c.MinWalksPerNode),
		int64(c.MaxWalksPerNode), int64(c.Iterations), int64(c.NegativeSamples),
		int64(c.Encoders), int64(c.CrossPathLen), int64(c.CrossPathsPerPair),
		int64(c.Loss), c.Seed, int64(c.Workers),
		int64(len(src.NodeNames)), int64(len(src.Export.EmbIn)), int64(len(src.Export.TransW)),
	}
	for i, v := range ints {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	binary.LittleEndian.PutUint64(b[120:], math.Float64bits(c.LRSingle))
	binary.LittleEndian.PutUint64(b[128:], math.Float64bits(c.LRCross))
	// Byte 0 records the deterministic apply, the only training mode;
	// byte 1, once the Parallel alias, stays 0.
	flags := []bool{
		true, false, c.NoCrossView, c.SimpleWalk,
		c.SimpleTranslator, c.NoTranslation, c.NoReconstruction, src.Export.TranslatorSimple,
	}
	for i, f := range flags {
		if f {
			b[136+i] = 1
		}
	}
}

// packNames encodes the node-name table (§5): counts, an offsets
// array, padding, then the concatenated UTF-8 blob.
func packNames(b []byte, names []string, blobLen uint64) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(len(names)))
	binary.LittleEndian.PutUint64(b[8:16], blobLen)
	off := uint32(0)
	for i, n := range names {
		binary.LittleEndian.PutUint32(b[16+i*4:], off)
		off += uint32(len(n))
	}
	binary.LittleEndian.PutUint32(b[16+len(names)*4:], off)
	blobStart := uint64(16 + (len(names)+1)*4)
	blobStart += pad8(blobStart)
	pos := blobStart
	for _, n := range names {
		copy(b[pos:], n)
		pos += uint64(len(n))
	}
}

// packTrans encodes every translator stack (§7): a pair count, a
// per-pair/per-side count table, then the weight and bias matrices in
// (pair, side, Ws..., Bs...) order.
func packTrans(b []byte, e *transn.Export) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(len(e.TransW)))
	pos := uint64(8)
	for p := range e.TransW {
		for side := 0; side < 2; side++ {
			binary.LittleEndian.PutUint64(b[pos:], uint64(len(e.TransW[p][side])))
			binary.LittleEndian.PutUint64(b[pos+8:], uint64(len(e.TransB[p][side])))
			pos += 16
		}
	}
	for p := range e.TransW {
		for side := 0; side < 2; side++ {
			for _, wm := range e.TransW[p][side] {
				putMatrix(b[pos:], wm)
				pos += matrixLen(wm)
			}
			for _, bm := range e.TransB[p][side] {
				putMatrix(b[pos:], bm)
				pos += matrixLen(bm)
			}
		}
	}
}
