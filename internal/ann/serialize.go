package ann

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"transn/internal/mat"
)

// Serialized HNSW graph layout (this is the payload of the snapshot
// format's ANN section; SNAPSHOT.md §8 normatively defers to it). All
// integers are little-endian. Layout:
//
//	[0:8)   magic "HNSWIDX1"
//	[8:12)  u32 M
//	[12:16) u32 efConstruction
//	[16:20) u32 efSearch (default search beam; advisory)
//	[20:24) u32 maxLevel
//	[24:32) i64 seed
//	[32:40) u64 nodes
//	[40:44) u32 entry node id
//	[44:48) u32 reserved (zero)
//	levels: nodes bytes (one level per node), zero-padded to 8
//	for each layer 0..maxLevel:
//	  u64 edges              total neighbor entries on this layer
//	  u32 offs[nodes+1]      CSR prefix offsets into nbrs
//	  u32 nbrs[edges]        neighbor ids
//	  zero padding to the next 8-byte boundary
//
// Every layer block therefore starts 8-aligned as long as the whole
// payload does, which lets Decode alias the u32 arrays straight out of
// a read-only mapping on little-endian hosts.
const (
	serMagic      = "HNSWIDX1"
	serHeaderSize = 48
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian, the precondition for zero-copy aliasing.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func pad8(n int) int { return (8 - n%8) % 8 }

// AppendTo serializes the index graph (not the table — the snapshot
// stores that separately) and appends it to dst. The output depends
// only on the build inputs, so two Builds of the same table and Config
// append identical bytes.
func (ix *Index) AppendTo(dst []byte) []byte {
	var b [8]byte
	dst = append(dst, serMagic...)
	binary.LittleEndian.PutUint32(b[:4], uint32(ix.cfg.M))
	dst = append(dst, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(ix.cfg.EfConstruction))
	dst = append(dst, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(ix.cfg.EfSearch))
	dst = append(dst, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(ix.maxLevel))
	dst = append(dst, b[:4]...)
	binary.LittleEndian.PutUint64(b[:], uint64(ix.cfg.Seed))
	dst = append(dst, b[:]...)
	binary.LittleEndian.PutUint64(b[:], uint64(ix.table.R))
	dst = append(dst, b[:]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(ix.entry))
	dst = append(dst, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], 0)
	dst = append(dst, b[:4]...)
	dst = append(dst, ix.levels...)
	for i := 0; i < pad8(len(ix.levels)); i++ {
		dst = append(dst, 0)
	}
	for _, l := range ix.layers {
		edges := 0
		for _, a := range l.adj {
			edges += len(a)
		}
		binary.LittleEndian.PutUint64(b[:], uint64(edges))
		dst = append(dst, b[:]...)
		off := uint32(0)
		for _, a := range l.adj {
			binary.LittleEndian.PutUint32(b[:4], off)
			dst = append(dst, b[:4]...)
			off += uint32(len(a))
		}
		binary.LittleEndian.PutUint32(b[:4], off)
		dst = append(dst, b[:4]...)
		for _, a := range l.adj {
			for _, nb := range a {
				binary.LittleEndian.PutUint32(b[:4], uint32(nb))
				dst = append(dst, b[:4]...)
			}
		}
		for i := 0; i < pad8((ix.table.R+1+edges)*4); i++ {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Decode reconstructs an index from bytes produced by AppendTo, over
// the given table and norms (nil norms are computed). On little-endian
// hosts with an 8-aligned data slice the neighbor arrays alias data
// directly — data must then stay alive and unmodified as long as the
// index — otherwise they are copied. Every structural field is
// validated so a corrupted snapshot fails closed instead of searching
// out of bounds.
func Decode(data []byte, table *mat.Dense, norms []float64) (*Index, error) {
	if len(data) < serHeaderSize {
		return nil, fmt.Errorf("ann: serialized index truncated: %d bytes", len(data))
	}
	if string(data[:8]) != serMagic {
		return nil, fmt.Errorf("ann: bad index magic %q", data[:8])
	}
	cfg := Config{
		M:              int(binary.LittleEndian.Uint32(data[8:12])),
		EfConstruction: int(binary.LittleEndian.Uint32(data[12:16])),
		EfSearch:       int(binary.LittleEndian.Uint32(data[16:20])),
	}
	maxLevel := int(binary.LittleEndian.Uint32(data[20:24]))
	cfg.Seed = int64(binary.LittleEndian.Uint64(data[24:32]))
	nodes := binary.LittleEndian.Uint64(data[32:40])
	entry := int32(binary.LittleEndian.Uint32(data[40:44]))
	if table == nil || uint64(table.R) != nodes {
		r := 0
		if table != nil {
			r = table.R
		}
		return nil, fmt.Errorf("ann: index covers %d nodes, table has %d rows", nodes, r)
	}
	if cfg.M <= 0 || cfg.M > 1<<20 {
		return nil, fmt.Errorf("ann: implausible M %d", cfg.M)
	}
	if maxLevel > maxLevelCap {
		return nil, fmt.Errorf("ann: max level %d exceeds cap %d", maxLevel, maxLevelCap)
	}
	if entry < 0 || uint64(entry) >= nodes {
		return nil, fmt.Errorf("ann: entry %d out of range [0,%d)", entry, nodes)
	}
	if norms == nil {
		norms = Norms(table)
	}
	if len(norms) != table.R {
		return nil, fmt.Errorf("ann: %d norms for %d rows", len(norms), table.R)
	}
	n := int(nodes)
	pos := serHeaderSize
	if len(data) < pos+n {
		return nil, fmt.Errorf("ann: serialized index truncated in levels")
	}
	levels := data[pos : pos+n : pos+n] // aliases data; read-only
	for i, lv := range levels {
		if int(lv) > maxLevel {
			return nil, fmt.Errorf("ann: node %d level %d exceeds max level %d", i, lv, maxLevel)
		}
	}
	if int(levels[entry]) != maxLevel {
		return nil, fmt.Errorf("ann: entry %d has level %d, want max level %d", entry, levels[entry], maxLevel)
	}
	pos += n + pad8(n)
	ix := &Index{
		cfg:      cfg.withDefaults(),
		table:    table,
		norms:    norms,
		levels:   levels,
		entry:    entry,
		maxLevel: maxLevel,
	}
	zeroCopy := hostLittleEndian() && uintptr(unsafe.Pointer(&data[0]))%8 == 0
	for l := 0; l <= maxLevel; l++ {
		if len(data) < pos+8 {
			return nil, fmt.Errorf("ann: serialized index truncated in layer %d header", l)
		}
		edges := binary.LittleEndian.Uint64(data[pos : pos+8])
		pos += 8
		if edges > math.MaxUint32 {
			return nil, fmt.Errorf("ann: layer %d edge count %d overflows u32 offsets", l, edges)
		}
		want := (n+1)*4 + int(edges)*4
		if len(data) < pos+want {
			return nil, fmt.Errorf("ann: serialized index truncated in layer %d arrays", l)
		}
		offs := asUint32s(data[pos:pos+(n+1)*4], zeroCopy)
		nbrs := asUint32s(data[pos+(n+1)*4:pos+want], zeroCopy)
		if offs[0] != 0 || offs[n] != uint32(edges) {
			return nil, fmt.Errorf("ann: layer %d offsets do not span edge array", l)
		}
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			// offs[n] is the edge count, so a later offset above it
			// also breaks monotonicity; checking it here keeps the
			// slice below inside nbrs.
			if offs[i] > offs[i+1] || offs[i+1] > offs[n] {
				return nil, fmt.Errorf("ann: layer %d offsets not monotonic at node %d", l, i)
			}
			if offs[i] != offs[i+1] && int(levels[i]) < l {
				return nil, fmt.Errorf("ann: node %d has layer-%d edges above its level %d", i, l, levels[i])
			}
			adj[i] = int32sOf(nbrs[offs[i]:offs[i+1]])
		}
		for _, nb := range nbrs {
			if uint64(nb) >= nodes {
				return nil, fmt.Errorf("ann: neighbor id %d out of range [0,%d)", nb, nodes)
			}
		}
		ix.layers = append(ix.layers, layer{adj: adj})
		pos += want + pad8(want)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("ann: %d trailing bytes after layer %d", len(data)-pos, maxLevel)
	}
	ix.initPool()
	return ix, nil
}

// asUint32s views b as little-endian u32s, aliasing when the caller
// established the zero-copy preconditions and copying otherwise.
func asUint32s(b []byte, zeroCopy bool) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if zeroCopy && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// int32sOf reinterprets a u32 slice as int32s without copying. Ids are
// validated non-negative (< nodes) by Decode before use.
func int32sOf(u []uint32) []int32 {
	if len(u) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&u[0])), len(u))
}
