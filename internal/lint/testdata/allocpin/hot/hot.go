// Package hot exercises the alloc-pin analyzer: a //lint:alloc-free
// body must not allocate, verified through the compiler's own escape
// analysis.
package hot

// Escapes allocates in an annotated body — the pin the analyzer turns
// into a finding.
//
//lint:alloc-free pinned hot path (fixture)
func Escapes(n int) *int {
	x := new(int) // want alloc.escape
	*x = n
	return x
}

// Clean is pure arithmetic: annotated and genuinely allocation-free.
//
//lint:alloc-free no allocation, pure arithmetic
func Clean(n int) int {
	return n*2 + 1
}

// Grows appends in an annotated body: a growing append allocates, but
// -gcflags=-m prints no escape line for it, so the call is the finding.
//
//lint:alloc-free pinned hot path (fixture)
func Grows(grad []float64) []float64 {
	return append([]float64(nil), grad...) // want alloc.append
}

// Reuses appends into a caller-owned buffer that never grows in steady
// state; the suppression vouches for the capacity.
//
//lint:alloc-free steady-state path reuses its buffer
func Reuses(buf []float64, x float64) []float64 {
	//lint:ignore alloc.append caller sizes buf to its final length
	return append(buf[:0], x)
}

// Unannotated allocates freely — without the annotation the analyzer
// has nothing to say.
func Unannotated(n int) []int {
	y := new(int)
	*y = n
	return append([]int(nil), *y)
}

// Amortized allocates once; the suppression vouches the warmup cost is
// amortized to zero in steady state.
//
//lint:alloc-free steady-state path is allocation-free after warmup
func Amortized(n int) *int {
	//lint:ignore alloc.escape one-time warmup allocation, amortized away
	z := new(int)
	*z = n
	return z
}

// Quiet holds the stale suppressions.
func Quiet(n int) int {
	// want-next lint.unused-suppression
	//lint:ignore alloc.escape nothing escapes here
	n++
	// want-next lint.unused-suppression
	//lint:ignore alloc.driver the driver is healthy
	return n
}
