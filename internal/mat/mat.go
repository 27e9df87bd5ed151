// Package mat provides a dense, row-major float64 matrix and the small set
// of linear-algebra kernels the rest of the repository needs. It uses no
// BLAS: everything works over a single contiguous backing slice, in plain
// Go except for the amd64 assembly tiers described below.
//
// Two vector kernels carry the repository's hot loops: Dot and Axpy.
// The skip-gram pair update, the translators' matrix products (MatMul,
// TMatMul and MatMulT, on both the training tape and the serving
// forward pass), the HNSW distance and the exact k-NN scan all call
// them instead of writing their own loops, so every score of the same
// two vectors is the same float64.
//
//   - Dot(x, y) unrolls by 4 into four independent accumulators:
//     s_k sums x[i]·y[i] over the unrolled indices i ≡ k (mod 4), the
//     tail of len(x) mod 4 elements goes into s0, and the result is
//     (s0+s1)+(s2+s3). The independent adds hide the floating-point
//     add latency a single running sum waits on. Like a left-to-right
//     sum it is within n·ε·Σ|xᵢyᵢ| of the exact value, and its order is
//     fixed, so results stay byte-reproducible.
//   - Axpy(a, x, y) computes y[i] += a·x[i] element by element, unrolled
//     by 4. Each element sees exactly one multiply and one add, so it is
//     bit-identical to the plain loop.
//
// Every product is rounded to float64 before it is added: the Go loops
// write it as an explicit float64 conversion, which the language
// forbids the compiler to fuse into a multiply-add, so they give the
// same bits under GOAMD64=v3 and on arm64 as on baseline amd64.
//
// On amd64 the kernels run assembly versions of the same arithmetic
// (kernels_amd64.s) in one of two tiers, chosen once at start-up by a
// CPUID/XGETBV check:
//
//   - AVX2, when the CPU has it and the OS saves the YMM registers. Dot
//     keeps s0..s3 in the four lanes of one YMM register, so each lane
//     adds its products in the order above; Axpy multiplies four
//     elements, then adds them.
//   - AVX-512, when the CPU also has AVX512F and the OS saves the opmask
//     and ZMM state. Axpy and UpdateRows work element by element, so
//     they widen to eight lanes per ZMM register with no change of
//     order: every element still gets one rounded multiply, then one
//     add. Blocks of 32 elements go in ZMM registers and the rest in the
//     AVX2 code. Dot and DotRows stay on AVX2: their four-lane summation
//     order is the contract, and an eight-lane multiply would still need
//     a lane extract and two four-lane adds per block to keep it, which
//     saves no work.
//
// Neither tier uses FMA, whose single rounding would change the bits.
// Both are bit-identical to the Go loops (dotGeneric, axpyGeneric and
// the row loops over them), which run off amd64 and on amd64 CPUs
// without AVX2. Only the payload of a NaN result may differ. No flag or
// setting selects a tier.
//
// Both panic when the lengths differ and allocate nothing. Axpy's x
// and y must be the same slice or not overlap.
//
// Two row kernels batch those calls over rows of one table, for the
// skip-gram pair step, which scores and updates a context row and its
// negatives together. DotRows(x, t, rows, dst) gives the bits of one
// Dot per row; in assembly it sweeps up to six rows per load of x, so
// six independent add chains are in flight instead of one. UpdateRows(x,
// t, rows, a, acc) gives the bits of Axpy(a_j, row_j, acc) then
// Axpy(−a_j, x, row_j) for each row in order, a repeated row included;
// in assembly it walks the rows once per column block with the block of
// acc in registers. Both check every length and row index in Go before
// the assembly runs, and allocate nothing.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix with R rows and C columns. Element (i, j)
// lives at Data[i*C+j]. The zero value is an empty 0x0 matrix.
type Dense struct {
	R, C int
	Data []float64
}

// New returns a zeroed r-by-c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (length must be r*c) in a Dense without copying.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Dense{R: r, C: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// SetRow copies v into row i. len(v) must equal m.C.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.C {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.C))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Resize makes m an r-by-c matrix and returns it, reusing m's backing
// array when its capacity allows and allocating a zeroed one otherwise.
// A reused array keeps its old contents, so the caller must write every
// element it reads. The zero Dense resizes like an empty one.
func (m *Dense) Resize(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if n := r * c; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.R, m.C = r, c
	return m
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Dense) SameShape(n *Dense) bool { return m.R == n.R && m.C == n.C }

func mustSameShape(op string, a, b *Dense) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}

// Add stores a+b into dst (allocating when dst is nil) and returns dst.
func Add(dst, a, b *Dense) *Dense {
	mustSameShape("Add", a, b)
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("Add dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// Sub stores a-b into dst (allocating when dst is nil) and returns dst.
func Sub(dst, a, b *Dense) *Dense {
	mustSameShape("Sub", a, b)
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("Sub dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
	return dst
}

// ElemMul stores the Hadamard product a⊙b into dst and returns dst.
func ElemMul(dst, a, b *Dense) *Dense {
	mustSameShape("ElemMul", a, b)
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("ElemMul dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// Scale stores s*a into dst and returns dst.
func Scale(dst *Dense, s float64, a *Dense) *Dense {
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("Scale dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = s * a.Data[i]
	}
	return dst
}

// AddScaled performs dst += s*a in place (axpy) and returns dst.
func AddScaled(dst *Dense, s float64, a *Dense) *Dense {
	mustSameShape("AddScaled", dst, a)
	Axpy(s, a.Data, dst.Data)
	return dst
}

// MatMul stores a·b into dst (allocating when dst is nil) and returns dst.
// a is r-by-k, b is k-by-c, dst is r-by-c. dst must not alias a or b.
func MatMul(dst, a, b *Dense) *Dense {
	if a.C != b.R {
		panic(fmt.Sprintf("mat: MatMul inner dims %d vs %d", a.C, b.R))
	}
	if dst == nil {
		dst = New(a.R, b.C)
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("mat: MatMul dst %dx%d want %dx%d", dst.R, dst.C, a.R, b.C))
	}
	dst.Zero()
	// ikj loop order: streams over b and dst rows for cache friendliness.
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.C; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			Axpy(aik, b.Row(k), drow)
		}
	}
	return dst
}

// MatMulT stores a·bᵀ into dst and returns dst. a is r-by-k, b is c-by-k.
func MatMulT(dst, a, b *Dense) *Dense {
	if a.C != b.C {
		panic(fmt.Sprintf("mat: MatMulT inner dims %d vs %d", a.C, b.C))
	}
	if dst == nil {
		dst = New(a.R, b.R)
	}
	if dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("mat: MatMulT dst %dx%d want %dx%d", dst.R, dst.C, a.R, b.R))
	}
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
	return dst
}

// TMatMul stores aᵀ·b into dst and returns dst. a is k-by-r, b is k-by-c.
func TMatMul(dst, a, b *Dense) *Dense {
	if a.R != b.R {
		panic(fmt.Sprintf("mat: TMatMul inner dims %d vs %d", a.R, b.R))
	}
	if dst == nil {
		dst = New(a.C, b.C)
	}
	if dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("mat: TMatMul dst %dx%d want %dx%d", dst.R, dst.C, a.C, b.C))
	}
	dst.Zero()
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			Axpy(aki, brow, dst.Row(i))
		}
	}
	return dst
}

// Transpose stores aᵀ into dst and returns dst. dst must not alias a.
func Transpose(dst, a *Dense) *Dense {
	if dst == nil {
		dst = New(a.C, a.R)
	}
	if dst.R != a.C || dst.C != a.R {
		panic(fmt.Sprintf("mat: Transpose dst %dx%d want %dx%d", dst.R, dst.C, a.C, a.R))
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
	return dst
}

// SoftmaxRows stores the row-wise softmax of a into dst and returns dst.
// Each row is shifted by its maximum for numerical stability.
func SoftmaxRows(dst, a *Dense) *Dense {
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("SoftmaxRows dst", dst, a)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		maxv := math.Inf(-1)
		for _, v := range arow {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range arow {
			e := math.Exp(v - maxv)
			drow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range drow {
			drow[j] *= inv
		}
	}
	return dst
}

// Relu stores max(0, a) elementwise into dst and returns dst.
func Relu(dst, a *Dense) *Dense {
	if dst == nil {
		dst = New(a.R, a.C)
	}
	mustSameShape("Relu dst", dst, a)
	for i, v := range a.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// Dot returns the inner product of vectors x and y, summed in the
// fixed four-accumulator order described in the package doc.
//
// Allocation-free; pinned by TestKernelsAllocFree.
func Dot(x, y []float64) float64 {
	if len(y) != len(x) {
		lengthMismatch("Dot", len(x), len(y))
	}
	if useAVX2 {
		return dotAVX2(x, y)
	}
	return dotGeneric(x, y)
}

// Axpy performs y += a·x element by element. x and y must be the same
// slice or not overlap.
//
// Allocation-free; pinned by TestKernelsAllocFree.
func Axpy(a float64, x, y []float64) {
	if len(y) != len(x) {
		lengthMismatch("Axpy", len(x), len(y))
	}
	switch {
	case useAVX512:
		axpyAVX512(a, x, y)
	case useAVX2:
		axpyAVX2(a, x, y)
	default:
		axpyGeneric(a, x, y)
	}
}

// DotRows sets dst[j] = Dot(x, t.Row(rows[j])) for every j, with the
// same bits as those Dot calls. On AVX2 it scores up to six rows per
// sweep, loading each block of x once for all of them; each row keeps
// Dot's lanes, tail and reduction, so only the number of independent
// add chains in flight changes. len(x) must equal t.C, len(dst) must
// equal len(rows), and every row index must lie in [0, t.R): all are
// checked before the assembly runs.
//
// Allocation-free; pinned by TestKernelsAllocFree.
func DotRows(x []float64, t *Dense, rows []int, dst []float64) {
	checkRows("DotRows", x, t, rows, len(dst))
	if useAVX2 {
		if len(rows) > 0 {
			dotRowsAVX2(x, t.Data, rows, dst)
		}
		return
	}
	dotRowsGeneric(x, t.Data, rows, dst)
}

// UpdateRows applies, for j = 0, 1, … in order, the two Axpy calls
//
//	Axpy(a[j], t.Row(rows[j]), acc)   // acc += a_j·row_j
//	Axpy(-a[j], x, t.Row(rows[j]))    // row_j += (−a_j)·x
//
// with the same bits, a repeated row included: every element sees the
// same operations in the same order. In assembly it runs column block
// by column block, keeping the block of acc in registers (YMM on AVX2,
// ZMM on AVX-512) while it walks the rows; −a_j is a sign-bit flip, as
// Go's unary minus is. acc must not overlap x or t. len(x) and len(acc)
// must equal t.C, len(a) must equal len(rows), and every row index must
// lie in [0, t.R): all are checked before the assembly runs.
//
// Allocation-free; pinned by TestKernelsAllocFree.
func UpdateRows(x []float64, t *Dense, rows []int, a, acc []float64) {
	checkRows("UpdateRows", x, t, rows, len(a))
	if len(acc) != t.C {
		lengthMismatch("UpdateRows acc", len(acc), t.C)
	}
	switch {
	case len(rows) == 0:
	case useAVX512:
		updateRowsAVX512(x, t.Data, rows, a, acc)
	case useAVX2:
		updateRowsAVX2(x, t.Data, rows, a, acc)
	default:
		updateRowsGeneric(x, t.Data, rows, a, acc)
	}
}

// checkRows validates the operands the row kernels share, so that the
// assembly only ever addresses whole rows of t.
func checkRows(op string, x []float64, t *Dense, rows []int, n int) {
	if len(x) != t.C {
		lengthMismatch(op+" x", len(x), t.C)
	}
	if n != len(rows) {
		lengthMismatch(op+" rows", len(rows), n)
	}
	if len(t.Data) < t.R*t.C {
		lengthMismatch(op+" data", len(t.Data), t.R*t.C)
	}
	for _, r := range rows {
		if uint(r) >= uint(t.R) {
			rowOutOfRange(op, r, t.R)
		}
	}
}

// rowOutOfRange is the row kernels' cold panic path.
//
//go:noinline
func rowOutOfRange(op string, r, n int) {
	panic(fmt.Sprintf("mat: %s row %d out of range [0:%d]", op, r, n))
}

// dotGeneric is Dot in Go, the reference the amd64 assembly matches.
// It reslices each block of four so its element accesses carry no
// bounds checks; one slice check per block remains.
func dotGeneric(x, y []float64) float64 {
	n := len(x)
	x, y = x[:n:n], y[:n:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= n-4; i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		s0 += float64(xs[0] * ys[0])
		s1 += float64(xs[1] * ys[1])
		s2 += float64(xs[2] * ys[2])
		s3 += float64(xs[3] * ys[3])
	}
	for ; i < n; i++ {
		s0 += float64(x[i] * y[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// dotRowsGeneric is DotRows in Go over t, a backing array with row
// stride len(x): one dotGeneric per row.
func dotRowsGeneric(x, t []float64, rows []int, dst []float64) {
	n := len(x)
	for j, r := range rows {
		dst[j] = dotGeneric(x, t[r*n:(r+1)*n])
	}
}

// updateRowsGeneric is UpdateRows in Go over t, a backing array with
// row stride len(x): the two axpyGeneric calls per row, in row order.
func updateRowsGeneric(x, t []float64, rows []int, a, acc []float64) {
	n := len(x)
	for j, r := range rows {
		row := t[r*n : (r+1)*n]
		axpyGeneric(a[j], row, acc)
		axpyGeneric(-a[j], x, row)
	}
}

// axpyGeneric is Axpy in Go, unrolled by 4 like dotGeneric.
func axpyGeneric(a float64, x, y []float64) {
	n := len(x)
	x, y = x[:n:n], y[:n:n]
	i := 0
	for ; i <= n-4; i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += float64(a * xs[0])
		ys[1] += float64(a * xs[1])
		ys[2] += float64(a * xs[2])
		ys[3] += float64(a * xs[3])
	}
	for ; i < n; i++ {
		y[i] += float64(a * x[i])
	}
}

// lengthMismatch is the kernels' cold panic path, kept out of line so
// the message formatting does not allocate inside them.
//
//go:noinline
func lengthMismatch(op string, nx, ny int) {
	panic(fmt.Sprintf("mat: %s length %d vs %d", op, nx, ny))
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// CosineSim returns the cosine similarity of x and y, or 0 when either is
// the zero vector.
func CosineSim(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 { return Norm2(m.Data) }

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value, or 0 for empty matrices.
func (m *Dense) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Equal reports whether m and n have the same shape and all elements within
// tol of each other.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if !m.SameShape(n) {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact human-readable form, truncating large matrices.
func (m *Dense) String() string {
	const maxShow = 6
	s := fmt.Sprintf("Dense %dx%d", m.R, m.C)
	if m.R <= maxShow && m.C <= maxShow {
		s += " ["
		for i := 0; i < m.R; i++ {
			if i > 0 {
				s += "; "
			}
			for j := 0; j < m.C; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("%.4g", m.At(i, j))
			}
		}
		s += "]"
	}
	return s
}
