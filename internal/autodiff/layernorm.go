package autodiff

import "math"

// LayerNormRows normalizes each row of x to zero mean and unit variance
// (no learnable affine): y = (x − μ)/√(σ² + ε). It is the stabilizer
// that makes residual encoder stacks trainable. The per-row 1/√(σ² + ε)
// that backward needs is kept in the node's slot.
func (tp *Tape) LayerNormRows(x *Tensor) *Tensor {
	const eps = 1e-5
	r, c := x.Value.R, x.Value.C
	out := tp.result(opLayerNormRows, x, nil, r, c)
	v := out.Value
	if cap(out.aux) < r {
		out.aux = make([]float64, r)
	}
	invStd := out.aux[:r]
	out.aux = invStd
	for i := 0; i < r; i++ {
		row := x.Value.Row(i)
		var mean float64
		for _, e := range row {
			mean += e
		}
		mean /= float64(c)
		var varr float64
		for _, e := range row {
			d := e - mean
			varr += d * d
		}
		varr /= float64(c)
		is := 1 / math.Sqrt(varr+eps)
		invStd[i] = is
		out := v.Row(i)
		for j, e := range row {
			out[j] = (e - mean) * is
		}
	}
	return out
}

// layerNormBackward propagates a LayerNormRows node's gradient:
// dL/dx = invStd · (g − mean(g) − y·mean(g⊙y)) per row.
func layerNormBackward(out *Tensor) {
	x := out.a
	r, c := out.Value.R, out.Value.C
	for i := 0; i < r; i++ {
		g := out.Grad.Row(i)
		y := out.Value.Row(i)
		var meanG, meanGY float64
		for j := 0; j < c; j++ {
			meanG += g[j]
			meanGY += g[j] * y[j]
		}
		meanG /= float64(c)
		meanGY /= float64(c)
		dst := x.Grad.Row(i)
		is := out.aux[i]
		for j := 0; j < c; j++ {
			dst[j] += is * (g[j] - meanG - y[j]*meanGY)
		}
	}
}
