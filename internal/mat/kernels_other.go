//go:build !amd64

package mat

// Off amd64 there is no assembly: useAVX2 and useAVX512 are constant
// false, so the kernels compile to the Go loops alone and these stubs
// never run.
const (
	useAVX2   = false
	useAVX512 = false
)

func dotAVX2(x, y []float64) float64 { panic("mat: no assembly kernels on this architecture") }

func axpyAVX2(a float64, x, y []float64) { panic("mat: no assembly kernels on this architecture") }

func axpyAVX512(a float64, x, y []float64) { panic("mat: no assembly kernels on this architecture") }

func dotRowsAVX2(x, t []float64, rows []int, dst []float64) {
	panic("mat: no assembly kernels on this architecture")
}

func updateRowsAVX2(x, t []float64, rows []int, a, acc []float64) {
	panic("mat: no assembly kernels on this architecture")
}

func updateRowsAVX512(x, t []float64, rows []int, a, acc []float64) {
	panic("mat: no assembly kernels on this architecture")
}
