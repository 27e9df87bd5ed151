// Package snapfmt implements transn.snap/v1, the model file format: a
// flat little-endian binary layout specified normatively in
// SNAPSHOT.md. A .snap file carries a whole trained model — config,
// node-name table, per-view and final float tables, translator
// weights, and optionally a serialized HNSW graph — in sections laid
// out so the float tables can be used directly out of a read-only
// mmap: every section starts on an 8-byte boundary and every float
// payload is a plain f64 array. `transn train -model` writes it (via
// WriteFile); `transn diagnose` and transnserve read it.
//
// The layout makes reload O(header) instead of O(model): Open maps the
// file and hands out tables that alias the mapping, so a reload
// touches only the header, directory and name table, and models
// larger than RAM stay servable (pages fault in on demand).
//
// Invariants:
//
//   - Read-only aliasing. On little-endian hosts the returned matrices
//     alias the mapped file. Nothing in this repository writes through
//     a loaded table (transn.Frozen's read-only contract), and the
//     mapping is PROT_READ, so a stray write faults instead of
//     corrupting the snapshot. The aliased memory is valid only until
//     Close; the serving layer ties Close to snapshot lifetime with a
//     finalizer so in-flight requests can never observe an unmapped
//     table.
//   - Fallback, not failure. If mmap is unavailable, the host is
//     big-endian, or a section is misaligned, Open falls back to a
//     copying decode of the same bytes; ZeroCopy reports which path
//     was taken. Results are identical either way.
//   - Fail-closed validation. The header, directory, section bounds,
//     alignment and the whole-file CRC64 checksum are verified before
//     any payload is interpreted; every validation error cites the
//     SNAPSHOT.md section it enforces.
//   - Determinism. Pack is a pure function of its Source: packing the
//     same model (and ANN bytes) twice produces byte-identical files.
//   - Replace, never rewrite. Readers map the file, so WriteFile
//     renames a fully written, fsynced temporary file over the path
//     and fsyncs the directory; open mappings of the old file keep
//     their bytes.
package snapfmt
