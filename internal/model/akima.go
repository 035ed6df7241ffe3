package model

import (
	"fmt"
	"math"

	"fupermod/internal/core"
	"fupermod/internal/interp"
)

// Akima is the functional performance model based on Akima-spline
// interpolation of the time function (paper §4.2, Fig. 2(b)). It removes
// the shape restrictions of the piecewise model — no coarsening is applied —
// and provides a continuous derivative, which the numerical partitioning
// algorithm requires (the multidimensional solver differentiates the
// balance system).
type Akima struct {
	set pointSet
	sp  *interp.Akima
}

// minModelTime is the positive floor applied to predicted times; a spline
// through wildly noisy data could otherwise dip to zero or below, which no
// physical time function does.
const minModelTime = 1e-12

// NewAkima returns an empty Akima FPM.
func NewAkima() *Akima { return &Akima{} }

// Name implements core.Model.
func (m *Akima) Name() string { return KindAkima }

// Update implements core.Model.
func (m *Akima) Update(p core.Point) error {
	if err := m.set.add(p); err != nil {
		return err
	}
	return m.rebuild()
}

// Fit adds every point and rebuilds once; core.UpdateAll calls it. The
// model ends as one Update per point would leave it.
func (m *Akima) Fit(pts []core.Point) error { return fit(m, &m.set, pts) }

func (m *Akima) rebuild() error {
	m.sp = nil
	if len(m.set.pts) < 2 {
		return nil
	}
	xs := make([]float64, len(m.set.pts))
	ys := make([]float64, len(m.set.pts))
	for i, q := range m.set.pts {
		xs[i] = float64(q.D)
		ys[i] = q.Time
	}
	sp, err := interp.NewAkima(xs, ys)
	if err != nil {
		return fmt.Errorf("model: akima rebuild: %w", err)
	}
	m.sp = sp
	return nil
}

// minEndSlopeFrac floors the right-extrapolation slope at this fraction of
// the model's average time per unit. Noisy measurements can leave the
// spline with a non-positive boundary derivative; a physical time function
// never shrinks with size, and partitioners need Time to keep growing so
// its inverse exists.
const minEndSlopeFrac = 1e-3

// endSlope returns the slope used beyond the last measured point.
func (m *Akima) endSlope() float64 {
	last := m.set.pts[len(m.set.pts)-1]
	floor := minEndSlopeFrac * last.Time / float64(last.D)
	if m.sp == nil {
		return last.Time / float64(last.D)
	}
	return math.Max(m.sp.Deriv(float64(last.D)), floor)
}

// Time implements core.Model. Below the first measured size the model uses
// the line from the origin through the first point; inside the measured
// range the Akima spline; beyond it a linear extension whose slope is the
// spline's boundary derivative floored at a small positive value. The
// result is floored at a tiny positive time.
func (m *Akima) Time(x float64) (float64, error) {
	pts := m.set.pts
	if len(pts) == 0 {
		return 0, core.ErrEmptyModel
	}
	if x < 0 {
		return 0, fmt.Errorf("model: time undefined at negative size %g", x)
	}
	first := pts[0]
	if x <= float64(first.D) || m.sp == nil {
		return math.Max(first.Time*x/float64(first.D), 0), nil
	}
	last := pts[len(pts)-1]
	if x > float64(last.D) {
		return math.Max(last.Time+m.endSlope()*(x-float64(last.D)), minModelTime), nil
	}
	return math.Max(m.sp.At(x), minModelTime), nil
}

// Deriv returns dT/dx at x, following the same piecewise definition as
// Time. The numerical partitioner uses it through finite differences of
// Time as well; Deriv exists for direct Newton implementations and tests.
func (m *Akima) Deriv(x float64) (float64, error) {
	pts := m.set.pts
	if len(pts) == 0 {
		return 0, core.ErrEmptyModel
	}
	first := pts[0]
	if x <= float64(first.D) || m.sp == nil {
		return first.Time / float64(first.D), nil
	}
	if last := pts[len(pts)-1]; x > float64(last.D) {
		return m.endSlope(), nil
	}
	return m.sp.Deriv(x), nil
}

// Points implements core.Model.
func (m *Akima) Points() []core.Point { return m.set.points() }
