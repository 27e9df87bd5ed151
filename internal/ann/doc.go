// Package ann provides a stdlib-only HNSW (Hierarchical Navigable
// Small World) graph over the rows of a frozen embedding table,
// searched under cosine similarity. Serving does not use it: at the
// sizes this repository trains (at most 1,630 nodes) one exact scan
// answers /v1/knn faster than an index search (DESIGN.md §14). The
// package stays for the end-to-end benchmark, which builds an index,
// writes it as a snapshot's optional ANN section (SNAPSHOT.md §8,
// ignored by readers) and measures Build and Search as layers of
// their own.
//
// Invariants the package guarantees:
//
//   - Immutability after build. Build fully constructs the index;
//     nothing mutates it afterwards, so an Index is safe for unlimited
//     concurrent Search calls without locks.
//   - Determinism. Construction consumes no global randomness and no
//     wall clock: per-node levels derive from a rngstream seed and the
//     node id alone, insertion is sequential in node-id order, and
//     every comparison breaks distance ties by node id. Two Builds
//     over the same table with the same Config serialize to identical
//     bytes (pinned by TestBuildDeterministic), which is what makes
//     packed snapshots byte-reproducible (SNAPSHOT.md §1).
//   - Read-only aliasing. The index never writes through the table or
//     norms slices it is given, so both may alias a read-only mmap
//     (snapfmt's zero-copy tables).
//
// The beam search on each layer (searchLayer) keeps one pool of at
// most ef candidates sorted by (distance, id) and expands its first
// unexpanded item until every item is expanded, the search pool of NSG
// (Fu et al., arXiv:1707.00143). It visits, scores and returns exactly
// what the HNSW paper's two-heap search does: a candidate that search
// evicts from its results is worse than every kept result, so it
// would end the search on reaching the top of the candidate heap, and
// the heap's live candidates are the pool's unexpanded items. The
// argument needs a total order on (distance, id), which Build ensures
// by rejecting non-finite norms; TestSearchLayerMatchesHeapReference
// holds the pool to the heap search, and TestBuildAndSearchPinned pins
// the bytes of a seeded build.
//
// Search is approximate: results approach the exact brute-force
// ranking (BruteKNN) as ef grows; recall is gated in hnsw_test.go.
package ann
