package snapfmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/transn"
)

// testGraph builds the quickstart academic network used across the
// repository's serving tests: three views with a shared-node pair.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	univ := b.NodeType("university")
	authorship := b.EdgeType("authorship")
	citation := b.EdgeType("citation")
	affiliation := b.EdgeType("affiliation")
	a1 := b.AddNode(author, "A1")
	a2 := b.AddNode(author, "A2")
	a3 := b.AddNode(author, "A3")
	p1 := b.AddNode(paper, "P1")
	p2 := b.AddNode(paper, "P2")
	u1 := b.AddNode(univ, "U1")
	b.AddEdge(a1, p1, authorship, 1)
	b.AddEdge(a2, p1, authorship, 1)
	b.AddEdge(a3, p2, authorship, 1)
	b.AddEdge(p1, p2, citation, 1)
	b.AddEdge(a1, u1, affiliation, 1)
	b.AddEdge(a3, u1, affiliation, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func trainCfg(seed int64) transn.Config {
	cfg := transn.DefaultConfig()
	cfg.Dim = 8
	cfg.WalkLength = 8
	cfg.MinWalksPerNode = 4
	cfg.MaxWalksPerNode = 8
	cfg.Iterations = 2
	cfg.CrossPathLen = 2
	cfg.CrossPathsPerPair = 10
	cfg.Workers = 1
	cfg.Seed = seed
	return cfg
}

// packTemp trains a model, packs it, and returns the paths plus the
// in-memory model.
func packTemp(t testing.TB, cfg transn.Config, ann []byte) (string, *transn.Model, *graph.Graph) {
	t.Helper()
	g := testGraph(t)
	m, err := transn.Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := FromModel(m, g)
	if err != nil {
		t.Fatal(err)
	}
	src.ANN = ann
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	return path, m, g
}

// The round-trip property behind the format: for random models, every
// table a mmap-loaded snapshot serves must be byte-identical to what
// the in-memory trained model serves. Exercised across seeds and the
// two translator variants.
func TestPackOpenRoundTripMatchesGob(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  transn.Config
	}{
		{"seed1", trainCfg(1)},
		{"seed2", trainCfg(2)},
		{"simple-translator", func() transn.Config { c := trainCfg(3); c.SimpleTranslator = true; return c }()},
		{"no-cross-view", func() transn.Config { c := trainCfg(4); c.NoCrossView = true; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, m, g := packTemp(t, tc.cfg, nil)
			gf, err := m.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sm, err := s.Model(g)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := sm.FreezeWithFinal(s.Final())
			if err != nil {
				t.Fatal(err)
			}
			want, got := gf.FinalTable(), sf.FinalTable()
			if want.R != got.R || want.C != got.C {
				t.Fatalf("final table %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
			}
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("final table diverges at element %d: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
			for vi := range gf.Views() {
				for id := 0; id < g.NumNodes(); id++ {
					w := gf.ViewEmbedding(vi, graph.NodeID(id))
					gv := sf.ViewEmbedding(vi, graph.NodeID(id))
					if (w == nil) != (gv == nil) {
						t.Fatalf("view %d node %d: presence diverges", vi, id)
					}
					for c := range w {
						if w[c] != gv[c] {
							t.Fatalf("view %d node %d dim %d: %v vs %v", vi, id, c, gv[c], w[c])
						}
					}
				}
			}
			// Translations must agree bit-for-bit too (same weights,
			// same arithmetic).
			for _, pr := range gf.ViewPairs() {
				for id := 0; id < g.NumNodes(); id++ {
					w, werr := gf.TranslateNode(pr.I, pr.J, graph.NodeID(id))
					gv, gerr := sf.TranslateNode(pr.I, pr.J, graph.NodeID(id))
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("pair (%d,%d) node %d: error presence diverges: %v vs %v", pr.I, pr.J, id, gerr, werr)
					}
					for c := range w {
						if w[c] != gv[c] {
							t.Fatalf("pair (%d,%d) node %d dim %d: %v vs %v", pr.I, pr.J, id, c, gv[c], w[c])
						}
					}
				}
			}
		})
	}
}

func TestPackDeterministic(t *testing.T) {
	g := testGraph(t)
	m, err := transn.Train(g, trainCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	src, err := FromModel(m, g)
	if err != nil {
		t.Fatal(err)
	}
	src.ANN = []byte("opaque-ann-payload")
	var a, b bytes.Buffer
	if err := Pack(&a, src); err != nil {
		t.Fatal(err)
	}
	if err := Pack(&b, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("packing the same source twice produced different bytes")
	}
}

func TestOpenNoMmapMatchesMmap(t *testing.T) {
	path, _, g := packTemp(t, trainCfg(6), []byte("annannann"))
	mm, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	cp, err := Open(path, OpenOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Mapped() {
		t.Fatal("NoMmap load reports a mapping")
	}
	a, b := mm.Final(), cp.Final()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("final tables diverge at %d", i)
		}
	}
	if !mm.Describe().HasANN || !cp.Describe().HasANN {
		t.Fatal("a loader lost the ANN section")
	}
	ma, _ := mm.Model(g)
	ca, _ := cp.Model(g)
	if ma == nil || ca == nil {
		t.Fatal("Model assembly failed on one loader")
	}
}

// Every section offset must be 8-aligned (§3.2) — the structural
// guarantee behind zero-copy float aliasing.
func TestSectionAlignment(t *testing.T) {
	path, _, _ := packTemp(t, trainCfg(7), []byte("xyz"))
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, sec := range s.Sections() {
		if sec.Offset%Align != 0 {
			t.Errorf("section %d (%s) offset %d not %d-aligned", i, sec.Kind, sec.Offset, Align)
		}
	}
	if len(s.Sections()) < 5 {
		t.Fatalf("only %d sections; want config+names+final+views+trans at least", len(s.Sections()))
	}
}

// The corruption table: every row mutates one structural aspect of a
// valid file and must be rejected with an error citing the SNAPSHOT.md
// section that forbids it.
func TestOpenRejectsCorruption(t *testing.T) {
	path, _, _ := packTemp(t, trainCfg(8), []byte("ann-bytes"))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// reseal recomputes the trailer so a mutation tests its own
	// validation rule rather than tripping the checksum first (§9
	// covers checksum corruption explicitly below).
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-TrailerSize:], Checksum(b[:len(b)-TrailerSize]))
		return b
	}
	cases := []struct {
		name    string
		section string // SNAPSHOT.md section the error must cite
		mutate  func(b []byte) []byte
	}{
		{"bad magic", "§2.1", func(b []byte) []byte { b[0] = 'X'; return reseal(b) }},
		{"wrong version", "§2.2", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], 99); return reseal(b) }},
		{"unknown flags", "§2.3", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:16], 4); return reseal(b) }},
		{"truncated header", "§2", func(b []byte) []byte { return b[:HeaderSize-4] }},
		{"file size mismatch", "§2.4", func(b []byte) []byte { return reseal(b[:len(b)-16]) }},
		{"directory overrun", "§2.5", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:20], 1<<20); return reseal(b) }},
		{"unknown section kind", "§2.5", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[HeaderSize:], 42); return reseal(b) }},
		{"misaligned section", "§3.2", func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[HeaderSize+8 : HeaderSize+16])
			binary.LittleEndian.PutUint64(b[HeaderSize+8:HeaderSize+16], off+4)
			return reseal(b)
		}},
		{"section overruns file", "§2.5", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[HeaderSize+16:HeaderSize+24], 1<<40)
			return reseal(b)
		}},
		{"bad checksum", "§9", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"corrupt config flag", "§4", func(b []byte) []byte {
			// config is the first section, right after the directory.
			nsec := binary.LittleEndian.Uint32(b[16:20])
			cfgOff := binary.LittleEndian.Uint64(b[HeaderSize+8 : HeaderSize+16])
			_ = nsec
			b[cfgOff+136] = 7 // flag bytes must be 0 or 1
			return reseal(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(append([]byte(nil), good...))
			p := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(p, OpenOptions{})
			if err == nil {
				t.Fatal("corrupted snapshot accepted")
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.section)) {
				t.Fatalf("error %q does not cite SNAPSHOT.md %s", err, tc.section)
			}
		})
	}
	if _, err := Open(path, OpenOptions{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// Serving against the wrong graph must fail loudly at Model time.
func TestModelRejectsWrongGraph(t *testing.T) {
	path, _, _ := packTemp(t, trainCfg(9), nil)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := graph.NewBuilder()
	nt := b.NodeType("x")
	et := b.EdgeType("e")
	n1 := b.AddNode(nt, "other1")
	n2 := b.AddNode(nt, "other2")
	b.AddEdge(n1, n2, et, 1)
	wrong, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Model(wrong); err == nil {
		t.Fatal("snapshot accepted a graph it was not packed against")
	}
}

func TestInspectDocument(t *testing.T) {
	path, _, _ := packTemp(t, trainCfg(10), []byte("ann!"))
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	doc := s.Describe()
	if !doc.HasANN || doc.Nodes != 6 || doc.Views != 3 || doc.Dim != 8 {
		t.Fatalf("implausible inspect doc: %+v", doc)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateInspect(data); err != nil {
		t.Fatalf("Describe output fails its own validator: %v", err)
	}
	bad := doc
	bad.Schema = "nope"
	bd, _ := json.Marshal(bad)
	if err := ValidateInspect(bd); err == nil {
		t.Error("wrong schema accepted")
	}
	bad = doc
	bad.Sections = nil
	bd, _ = json.Marshal(bad)
	if err := ValidateInspect(bd); err == nil {
		t.Error("empty section list accepted")
	}
	if err := ValidateInspect([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestFromModelRejectsNonFinite(t *testing.T) {
	g := testGraph(t)
	m, err := transn.Train(g, trainCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	// Poison one view table element.
	e := m.Export()
	for _, tbl := range e.EmbIn {
		if tbl != nil {
			tbl.Data[0] = nan()
			break
		}
	}
	if _, err := FromModel(m, g); err == nil {
		t.Fatal("FromModel packed a non-finite model")
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// Replacing a model file that a server has open must not change the
// tables of the open mapping: WriteFile renames a new inode over the
// path, where an in-place rewrite (os.Create + Pack) would overwrite
// the pages every mapping of the old file shares.
func TestWriteFileKeepsOpenMappingIntact(t *testing.T) {
	path, m1, g := packTemp(t, trainCfg(1), nil)
	old, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if !old.Mapped() {
		t.Skip("snapshot is not mmapped on this platform")
	}
	want := m1.Embeddings()

	m2, err := transn.Train(g, trainCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	src, err := FromModel(m2, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	got := old.Final()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("open mapping changed under the writer: final[%d] = %v, was %v", i, got.Data[i], want.Data[i])
		}
	}
	fresh, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if !fresh.Final().Equal(m2.Embeddings(), 0) {
		t.Fatal("a fresh open does not see the new model")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("writer left %d directory entries, want only the model file", len(entries))
	}
}

// WriteFile leaves the permissions os.Create would: a replaced file
// keeps its mode, and a new file gets 0666 less the umask, so a private
// umask keeps model files private.
func TestWriteFileMode(t *testing.T) {
	path, m, g := packTemp(t, trainCfg(1), nil)
	src, err := FromModel(m, g)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(path)
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	fresh := filepath.Join(dir, "fresh.snap")
	if err := WriteFile(fresh, src); err != nil {
		t.Fatal(err)
	}
	if got, want := perm(t, fresh), perm(t, ref.Name()); got != want {
		t.Errorf("new file mode %v, os.Create gives %v", got, want)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	if got := perm(t, path); got != 0o640 {
		t.Errorf("replaced file mode %v, want the old file's 0640", got)
	}
}

func perm(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode().Perm()
}

// The config section (§4) must carry every hyperparameter in
// transn.Config: a field packConfig/decodeConfig do not know about
// would silently reset to zero in every served model. Each serializable
// field gets a distinct non-zero value by reflection, so a new field
// fails here until the section learns it. Bools are also set one at a
// time, which catches two flags swapped between encoder and decoder.
// DeterministicApply is not a choice: it is true in every trained
// model, and flag byte 0 always records it so.
func TestConfigSectionCarriesEveryField(t *testing.T) {
	runtimeOnly := map[string]bool{"Observer": true, "Telemetry": true, "ModelReady": true}
	base := transn.Config{DeterministicApply: true}
	bv := reflect.ValueOf(&base).Elem()
	var bools []int
	for i := 0; i < bv.NumField(); i++ {
		f := bv.Type().Field(i)
		if runtimeOnly[f.Name] || f.Name == "DeterministicApply" {
			continue
		}
		switch fv := bv.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(100 + i))
		case reflect.Float64:
			fv.SetFloat(float64(i) + 0.25)
		case reflect.Bool:
			bools = append(bools, i)
		default:
			t.Fatalf("Config.%s has kind %s, which the config section (§4) cannot encode", f.Name, fv.Kind())
		}
	}
	cases := []transn.Config{base}
	all := base
	for _, i := range bools {
		reflect.ValueOf(&all).Elem().Field(i).SetBool(true)
		one := base
		reflect.ValueOf(&one).Elem().Field(i).SetBool(true)
		cases = append(cases, one)
	}
	cases = append(cases, all)
	for ci, cfg := range cases {
		src := &Source{
			Export: transn.Export{
				Cfg:    cfg,
				EmbIn:  []*mat.Dense{mat.New(2, cfg.Dim)},
				EmbOut: []*mat.Dense{mat.New(2, cfg.Dim)},
			},
			NodeNames: []string{"a", "b"},
			Final:     mat.New(2, cfg.Dim),
		}
		path := filepath.Join(t.TempDir(), "cfg.snap")
		if err := WriteFile(path, src); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Config()
		s.Close()
		if !reflect.DeepEqual(got, cfg) {
			t.Fatalf("case %d: config round trip changed values:\n got %+v\nwant %+v", ci, got, cfg)
		}
	}
}
