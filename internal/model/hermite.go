package model

import (
	"fmt"
	"math"

	"fupermod/internal/core"
	"fupermod/internal/interp"
)

// Hermite is a functional performance model based on the Fritsch–Carlson
// monotone cubic interpolation of the time function. It combines the
// strengths of the framework's two FPM flavours: like the Akima model it
// is smooth (C¹, usable by the Newton-based numerical partitioner), and
// like the coarsened piecewise model its time function is monotone
// wherever the measured times are monotone — so the τ-bisection inverse
// exists without extrapolation-slope floors. Measurements that are
// themselves non-monotone (noise dips) are flattened by the slope limiter
// rather than clipped, a gentler form of the paper's coarsening.
type Hermite struct {
	set pointSet
	sp  *interp.Hermite
}

// NewHermite returns an empty monotone-cubic FPM.
func NewHermite() *Hermite { return &Hermite{} }

// Name implements core.Model.
func (m *Hermite) Name() string { return KindHermite }

// Update implements core.Model.
func (m *Hermite) Update(p core.Point) error {
	if err := m.set.add(p); err != nil {
		return err
	}
	return m.rebuild()
}

// Fit adds every point and rebuilds once; core.UpdateAll calls it. The
// model ends as one Update per point would leave it.
func (m *Hermite) Fit(pts []core.Point) error { return fit(m, &m.set, pts) }

func (m *Hermite) rebuild() error {
	m.sp = nil
	if len(m.set.pts) < 2 {
		return nil
	}
	xs := make([]float64, len(m.set.pts))
	ys := make([]float64, len(m.set.pts))
	prev := 0.0
	for i, q := range m.set.pts {
		xs[i] = float64(q.D)
		// Gentle monotonisation of the *data*: Fritsch–Carlson keeps
		// monotone data monotone, so feed it the running maximum of the
		// measured times (physical time functions never shrink).
		tVal := q.Time
		if tVal < prev {
			tVal = prev * (1 + minTimeGrowth)
		}
		ys[i] = tVal
		prev = tVal
	}
	sp, err := interp.NewHermite(xs, ys)
	if err != nil {
		return fmt.Errorf("model: hermite rebuild: %w", err)
	}
	m.sp = sp
	return nil
}

// Time implements core.Model: origin line below the first point, monotone
// cubic inside the domain, linear extension beyond it.
func (m *Hermite) Time(x float64) (float64, error) {
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
	return math.Max(m.sp.At(x), minModelTime), nil
}

// Deriv returns dT/dx at x.
func (m *Hermite) Deriv(x float64) (float64, error) {
	pts := m.set.pts
	if len(pts) == 0 {
		return 0, core.ErrEmptyModel
	}
	first := pts[0]
	if x <= float64(first.D) || m.sp == nil {
		return first.Time / float64(first.D), nil
	}
	return m.sp.Deriv(x), nil
}

// Points implements core.Model.
func (m *Hermite) Points() []core.Point { return m.set.points() }
