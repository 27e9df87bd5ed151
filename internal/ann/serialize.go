package ann

import "encoding/binary"

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
// payload does. Snapshot readers ignore the section; the package has
// no decoder.
const serMagic = "HNSWIDX1"

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
