package mat

// useAVX2 selects the assembly kernels; it is set once, before any
// kernel runs, and never changes.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID leaves 1 and 7, XGETBV).
func cpuHasAVX2() bool

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
