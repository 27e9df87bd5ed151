package mat

// useAVX2 selects the assembly kernels; it is set once, before any
// kernel runs, and never changes.
var useAVX2 = cpuHasAVX2()

// useAVX512 selects the AVX-512F Axpy and UpdateRows kernels over
// their AVX2 versions; Dot and DotRows stay on AVX2. It is set once,
// after useAVX2, and never changes.
var useAVX512 = useAVX2 && cpuHasAVX512()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU has AVX512F and the OS saves
// the opmask and ZMM registers (CPUID leaf 7, XGETBV). It may run only
// once cpuHasAVX2 holds.
func cpuHasAVX512() bool

// dotAVX2 is dotGeneric in AVX2: the same products, added in the same
// order. len(y) must equal len(x).
//
//go:noescape
func dotAVX2(x, y []float64) float64

// axpyAVX2 is axpyGeneric in AVX2: one multiply, then one add, per
// element. len(y) must equal len(x).
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

// axpyAVX512 is axpyAVX2 with blocks of 32 elements in ZMM registers:
// the same multiply, then add, per element. len(y) must equal len(x).
//
//go:noescape
func axpyAVX512(a float64, x, y []float64)

// dotRowsAVX2 is DotRows's loop in AVX2 over t, the matrix's backing
// array with row stride len(x). Rows and lengths are checked by
// DotRows; rows must be non-empty.
//
//go:noescape
func dotRowsAVX2(x, t []float64, rows []int, dst []float64)

// updateRowsAVX2 is UpdateRows's loop in AVX2 over t, the matrix's
// backing array with row stride len(x). Rows and lengths are checked by
// UpdateRows; rows must be non-empty.
//
//go:noescape
func updateRowsAVX2(x, t []float64, rows []int, a, acc []float64)

// updateRowsAVX512 is updateRowsAVX2 with each block of 32 columns in
// ZMM registers: the same operations on every element, in the same
// order. Rows and lengths are checked by UpdateRows; rows must be
// non-empty.
//
//go:noescape
func updateRowsAVX512(x, t []float64, rows []int, a, acc []float64)
