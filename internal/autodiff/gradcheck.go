package autodiff

import (
	"math"

	"transn/internal/mat"
)

// GradCheck compares the analytic gradient of loss(params) with a central
// finite-difference estimate and returns the largest relative error seen.
//
// lossFn must rebuild the graph from scratch each call, on a fresh tape
// or on one tape Reset first, run Backward, and return the scalar loss
// tensor together with the tape's Param tensors for the supplied
// matrices (same order). GradCheck copies what it needs from a call's
// tensors before the next call, so a reused tape is fine. params are
// perturbed in place and restored.
func GradCheck(params []*mat.Dense, lossFn func() (*Tensor, []*Tensor), eps float64) float64 {
	// Analytic pass.
	_, pts := lossFn()
	if len(pts) != len(params) {
		panic("autodiff: GradCheck param count mismatch")
	}
	analytic := make([]*mat.Dense, len(params))
	for i, pt := range pts {
		if pt.Grad != nil {
			analytic[i] = pt.Grad.Clone()
		} else {
			analytic[i] = mat.New(params[i].R, params[i].C)
		}
	}

	var worst float64
	for pi, p := range params {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp, _ := lossFn()
			fplus := lp.Value.At(0, 0)
			p.Data[i] = orig - eps
			lm, _ := lossFn()
			fminus := lm.Value.At(0, 0)
			p.Data[i] = orig
			numeric := (fplus - fminus) / (2 * eps)
			a := analytic[pi].Data[i]
			denom := math.Max(1, math.Max(math.Abs(a), math.Abs(numeric)))
			relErr := math.Abs(a-numeric) / denom
			if relErr > worst {
				worst = relErr
			}
		}
	}
	return worst
}
