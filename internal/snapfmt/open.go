package snapfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"syscall"
	"unsafe"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/transn"
)

// OpenOptions tunes Open. The zero value is the production default:
// mmap with checksum verification.
type OpenOptions struct {
	// NoMmap forces the copying loader (os.ReadFile + decode), the
	// same path taken automatically when mmap fails. Mostly for tests
	// and for hosts where mapping is undesirable.
	NoMmap bool
}

// Snapshot is a loaded .snap file: validated, decoded, and — on the
// zero-copy path — backed by a read-only mapping that must outlive
// every table it handed out. Close unmaps; the serving layer calls it
// from a finalizer on the owning serve snapshot so the mapping lives
// exactly as long as the last reference.
type Snapshot struct {
	data     []byte
	mapped   bool
	zeroCopy bool
	sections []Section

	cfg              transn.Config
	translatorSimple bool
	nodes, views     int
	pairs            int
	names            []string
	final            *mat.Dense
	embIn, embOut    []*mat.Dense
	transW, transB   [][2][]*mat.Dense
}

// hostLittleEndian reports whether this machine stores integers
// little-endian — the first zero-copy precondition (§3.1).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Open maps (or reads) a .snap file, validates it end to end — header,
// directory, checksum, section structure — and decodes the metadata
// sections. Float tables are aliased out of the mapping when the host
// is little-endian and the mapping is 8-aligned (§3.1–§3.2), otherwise
// copied; either way the returned Snapshot behaves identically.
func Open(path string, opts OpenOptions) (*Snapshot, error) {
	s := &Snapshot{}
	if opts.NoMmap {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("snapfmt: %w", err)
		}
		s.data = data
	} else {
		data, mapped, err := mapFile(path)
		if err != nil {
			return nil, err
		}
		s.data = data
		s.mapped = mapped
	}
	if err := s.decode(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// mapFile mmaps path read-only, falling back to a plain read when the
// mapping fails (exotic filesystems, empty files, hosts without mmap
// semantics). The bool reports whether the bytes are a mapping.
func mapFile(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("snapfmt: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("snapfmt: %w", err)
	}
	size := st.Size()
	if size > 0 && size <= math.MaxInt {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			return data, true, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("snapfmt: %w", err)
	}
	return data, false, nil
}

// Close releases the mapping (a no-op for copied loads). The Snapshot
// and every aliased table are invalid afterwards.
func (s *Snapshot) Close() error {
	if !s.mapped || s.data == nil {
		s.data = nil
		return nil
	}
	data := s.data
	s.data = nil
	s.mapped = false
	return syscall.Munmap(data)
}

// ZeroCopy reports whether the float tables alias the file bytes
// (true) or were copied out (false).
func (s *Snapshot) ZeroCopy() bool { return s.zeroCopy }

// Mapped reports whether the file is mmap-backed.
func (s *Snapshot) Mapped() bool { return s.mapped }

// SizeBytes returns the file size.
func (s *Snapshot) SizeBytes() int { return len(s.data) }

// Sections returns the decoded section directory, in file order.
func (s *Snapshot) Sections() []Section { return s.sections }

// Config returns the training configuration stored in the snapshot.
func (s *Snapshot) Config() transn.Config { return s.cfg }

// NodeNames returns the node-name table in global-id order. The slice
// is owned by the Snapshot; treat it as read-only.
func (s *Snapshot) NodeNames() []string { return s.names }

// Final returns the stored final embedding table. On the zero-copy
// path it aliases the mapping: read-only, valid until Close.
func (s *Snapshot) Final() *mat.Dense { return s.final }

func (s *Snapshot) decode() error {
	sections, err := parseHeader(s.data)
	if err != nil {
		return err
	}
	if err := verifyChecksum(s.data); err != nil {
		return err
	}
	s.sections = sections
	s.zeroCopy = hostLittleEndian() && uintptr(unsafe.Pointer(&s.data[0]))%Align == 0
	var seen [KindANN + 1]int
	for _, sec := range sections {
		seen[sec.Kind]++
	}
	for _, kind := range []SectionKind{KindConfig, KindNames, KindFinal} {
		if seen[kind] != 1 {
			return specErr("§2.5", "want exactly one %s section, found %d", kind, seen[kind])
		}
	}
	if seen[KindTrans] > 1 || seen[KindANN] > 1 {
		return specErr("§2.5", "duplicate trans/ann section")
	}
	for _, sec := range sections {
		body := s.data[sec.Offset : sec.Offset+sec.Length]
		var err error
		switch sec.Kind {
		case KindConfig:
			err = s.decodeConfig(body)
		case KindNames:
			err = s.decodeNames(body)
		case KindFinal:
			s.final, err = s.decodeMatrix(body, "§6", "final")
		case KindTrans, KindViewIn, KindViewOut:
			// Decoded below, after config told us the view count.
		case KindANN:
			// Opaque to readers (§8): checksummed, never decoded.
		}
		if err != nil {
			return err
		}
	}
	s.embIn = make([]*mat.Dense, s.views)
	s.embOut = make([]*mat.Dense, s.views)
	for _, sec := range sections {
		body := s.data[sec.Offset : sec.Offset+sec.Length]
		var err error
		switch sec.Kind {
		case KindViewIn, KindViewOut:
			err = s.decodeView(sec, body)
		case KindTrans:
			err = s.decodeTrans(body)
		}
		if err != nil {
			return err
		}
	}
	if s.nodes != len(s.names) {
		return specErr("§5", "config says %d nodes, names section has %d", s.nodes, len(s.names))
	}
	if s.final.R != s.nodes || s.final.C != s.cfg.Dim {
		return specErr("§6", "final table is %dx%d, config says %dx%d", s.final.R, s.final.C, s.nodes, s.cfg.Dim)
	}
	if s.pairs > 0 && s.transW == nil {
		return specErr("§7", "config says %d translator pairs but there is no trans section", s.pairs)
	}
	return nil
}

// decodeConfig decodes the fixed config section (§4).
func (s *Snapshot) decodeConfig(b []byte) error {
	if len(b) != configSize {
		return specErr("§4", "config section is %d bytes, want %d", len(b), configSize)
	}
	i64 := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	c := transn.Config{
		Dim: int(i64(0)), WalkLength: int(i64(1)), MinWalksPerNode: int(i64(2)),
		MaxWalksPerNode: int(i64(3)), Iterations: int(i64(4)), NegativeSamples: int(i64(5)),
		Encoders: int(i64(6)), CrossPathLen: int(i64(7)), CrossPathsPerPair: int(i64(8)),
		Loss: transn.CrossLoss(i64(9)), Seed: i64(10), Workers: int(i64(11)),
	}
	nodes, views, pairs := i64(12), i64(13), i64(14)
	c.LRSingle = math.Float64frombits(binary.LittleEndian.Uint64(b[120:]))
	c.LRCross = math.Float64frombits(binary.LittleEndian.Uint64(b[128:]))
	flags := b[136:144]
	for i, v := range flags {
		if v > 1 {
			return specErr("§4", "flag byte %d is %d, must be 0 or 1", i, v)
		}
	}
	// flags[1], the retired Parallel alias, is validated and ignored.
	c.DeterministicApply = flags[0] == 1
	c.NoCrossView = flags[2] == 1
	c.SimpleWalk = flags[3] == 1
	c.SimpleTranslator = flags[4] == 1
	c.NoTranslation = flags[5] == 1
	c.NoReconstruction = flags[6] == 1
	s.translatorSimple = flags[7] == 1
	if c.Dim <= 0 || nodes <= 0 || views <= 0 || pairs < 0 {
		return specErr("§4", "implausible counts: dim=%d nodes=%d views=%d pairs=%d", c.Dim, nodes, views, pairs)
	}
	const maxCount = 1 << 40
	if nodes > maxCount || views > 1<<20 || pairs > 1<<30 {
		return specErr("§4", "counts overflow sanity bounds: nodes=%d views=%d pairs=%d", nodes, views, pairs)
	}
	s.cfg = c
	s.nodes, s.views, s.pairs = int(nodes), int(views), int(pairs)
	return nil
}

// decodeNames decodes the node-name table (§5).
func (s *Snapshot) decodeNames(b []byte) error {
	if len(b) < 16 {
		return specErr("§5", "names section truncated at %d bytes", len(b))
	}
	count := binary.LittleEndian.Uint64(b[0:8])
	blobLen := binary.LittleEndian.Uint64(b[8:16])
	if count > uint64(len(b)) {
		return specErr("§5", "name count %d larger than the section", count)
	}
	offsEnd := 16 + (count+1)*4
	blobStart := offsEnd + pad8(offsEnd)
	if blobStart+blobLen != uint64(len(b)) {
		return specErr("§5", "names section is %d bytes, layout needs %d", len(b), blobStart+blobLen)
	}
	blob := b[blobStart:]
	names := make([]string, count)
	prev := uint32(0)
	for i := uint64(0); i < count; i++ {
		lo := binary.LittleEndian.Uint32(b[16+i*4:])
		hi := binary.LittleEndian.Uint32(b[16+(i+1)*4:])
		if lo != prev || hi < lo || uint64(hi) > blobLen {
			return specErr("§5", "name %d offsets [%d,%d) are not contiguous within the blob", i, lo, hi)
		}
		names[i] = string(blob[lo:hi])
		prev = hi
	}
	if uint64(prev) != blobLen {
		return specErr("§5", "name offsets cover %d of %d blob bytes", prev, blobLen)
	}
	s.names = names
	return nil
}

// decodeMatrix decodes one matrix blob (§3.3), aliasing the payload on
// the zero-copy path.
func (s *Snapshot) decodeMatrix(b []byte, spec, what string) (*mat.Dense, error) {
	if len(b) < 16 {
		return nil, specErr(spec, "%s matrix blob truncated at %d bytes", what, len(b))
	}
	rows := binary.LittleEndian.Uint64(b[0:8])
	cols := binary.LittleEndian.Uint64(b[8:16])
	n := rows * cols
	if cols != 0 && rows > math.MaxUint64/cols || n > uint64(len(b))/8 || 16+n*8 != uint64(len(b)) {
		return nil, specErr(spec, "%s matrix claims %dx%d but the blob is %d bytes", what, rows, cols, len(b))
	}
	payload := b[16:]
	var data []float64
	if s.zeroCopy && n > 0 {
		// §3.2's alignment guarantee puts every blob payload on an
		// 8-byte boundary; with a little-endian host the bytes ARE the
		// f64 array.
		data = unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), n)
	} else {
		data = make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	}
	return mat.FromSlice(int(rows), int(cols), data), nil
}

// decodeView decodes one per-view table section (§6).
func (s *Snapshot) decodeView(sec Section, body []byte) error {
	vi := int(sec.Arg)
	if vi >= s.views {
		return specErr("§6", "%s section for view %d, config says %d views", sec.Kind, vi, s.views)
	}
	m, err := s.decodeMatrix(body, "§6", sec.Kind.String())
	if err != nil {
		return err
	}
	tgt := &s.embIn
	if sec.Kind == KindViewOut {
		tgt = &s.embOut
	}
	if (*tgt)[vi] != nil {
		return specErr("§6", "duplicate %s section for view %d", sec.Kind, vi)
	}
	(*tgt)[vi] = m
	return nil
}

// decodeTrans decodes the translator section (§7).
func (s *Snapshot) decodeTrans(b []byte) error {
	if len(b) < 8 {
		return specErr("§7", "trans section truncated at %d bytes", len(b))
	}
	pairs := binary.LittleEndian.Uint64(b[0:8])
	if int(pairs) != s.pairs {
		return specErr("§7", "trans section has %d pairs, config says %d", pairs, s.pairs)
	}
	counts := uint64(8) + pairs*32
	if uint64(len(b)) < counts {
		return specErr("§7", "trans section too short for %d pair-count rows", pairs)
	}
	pos := counts
	s.transW = make([][2][]*mat.Dense, pairs)
	s.transB = make([][2][]*mat.Dense, pairs)
	for p := uint64(0); p < pairs; p++ {
		for side := 0; side < 2; side++ {
			row := 8 + p*32 + uint64(side)*16
			wCount := binary.LittleEndian.Uint64(b[row:])
			bCount := binary.LittleEndian.Uint64(b[row+8:])
			if wCount > 1<<20 || bCount > 1<<20 {
				return specErr("§7", "pair %d side %d claims %d/%d stacks", p, side, wCount, bCount)
			}
			next := func(what string) (*mat.Dense, error) {
				if uint64(len(b)) < pos+16 {
					return nil, specErr("§7", "trans section truncated in pair %d %s", p, what)
				}
				rows := binary.LittleEndian.Uint64(b[pos:])
				cols := binary.LittleEndian.Uint64(b[pos+8:])
				if cols != 0 && rows > math.MaxUint64/cols || rows*cols > uint64(len(b))/8 {
					return nil, specErr("§7", "pair %d %s matrix %dx%d overruns the section", p, what, rows, cols)
				}
				ln := 16 + rows*cols*8
				if uint64(len(b)) < pos+ln {
					return nil, specErr("§7", "pair %d %s matrix %dx%d overruns the section", p, what, rows, cols)
				}
				m, err := s.decodeMatrix(b[pos:pos+ln], "§7", what)
				pos += ln
				return m, err
			}
			for i := uint64(0); i < wCount; i++ {
				m, err := next("weight")
				if err != nil {
					return err
				}
				s.transW[p][side] = append(s.transW[p][side], m)
			}
			for i := uint64(0); i < bCount; i++ {
				m, err := next("bias")
				if err != nil {
					return err
				}
				s.transB[p][side] = append(s.transB[p][side], m)
			}
		}
	}
	if pos != uint64(len(b)) {
		return specErr("§7", "%d trailing bytes after translator matrices", uint64(len(b))-pos)
	}
	return nil
}

// Model assembles a transn.Model over g from the snapshot's tables,
// after validating that g is the graph the snapshot was packed against
// (same node names in the same order). The model's matrices alias the
// snapshot on the zero-copy path — the Snapshot must stay open as long
// as the model is served.
func (s *Snapshot) Model(g *graph.Graph) (*transn.Model, error) {
	if g.NumNodes() != len(s.names) {
		return nil, fmt.Errorf("snapfmt: snapshot holds %d nodes, graph has %d", len(s.names), g.NumNodes())
	}
	for i, n := range g.Nodes {
		if s.names[i] != n.Name {
			return nil, fmt.Errorf("snapfmt: node %d is %q in the snapshot but %q in the graph — wrong graph?", i, s.names[i], n.Name)
		}
	}
	e := transn.Export{
		Cfg:              s.cfg,
		EmbIn:            s.embIn,
		EmbOut:           s.embOut,
		TransW:           s.transW,
		TransB:           s.transB,
		TranslatorSimple: s.translatorSimple,
	}
	return transn.FromExport(e, g)
}
