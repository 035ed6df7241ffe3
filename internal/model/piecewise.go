package model

import (
	"fmt"
	"math"

	"fupermod/internal/core"
	"fupermod/internal/interp"
)

// Piecewise is the functional performance model based on piecewise-linear
// interpolation of the time function (paper §4.2, Fig. 2(a)). On top of the
// raw measurements it applies *coarsening*: the time values are clipped
// upward, left to right, so that the time function is strictly increasing.
//
// That restriction is exactly what the geometric partitioning algorithm of
// Lastovetsky–Reddy needs: a line through the origin of the speed plane,
// s = k·x, intersects the speed curve where s(x)/x = k, and since
// s(x)/x = 1/t(x), the intersection is unique for every k > 0 if and only
// if t is strictly increasing. Where the measured data violates the shape
// (speed spikes, noise), the model deliberately loses detail — the paper's
// "coarsens the real performance data".
type Piecewise struct {
	set pointSet

	// coarse holds the coarsened (size, time) knots; itp interpolates
	// them, reading the same arrays. Update and Fit rebuild all three
	// from fresh arrays, so an interpolant never sees its knots change.
	coarseD []float64
	coarseT []float64
	itp     *interp.Linear
}

// minTimeGrowth is the minimal relative time increase enforced between
// consecutive coarsened knots, keeping the time function strictly
// increasing and its inverse well defined. The relative floor alone is not
// enough: when the first measured time is zero (Benchmark accepts zero
// times from kernels faster than the clock resolution) a purely relative
// bump stays stuck at zero, so coarsening additionally enforces the
// absolute floor minModelTime between knots.
const minTimeGrowth = 1e-9

// NewPiecewise returns an empty piecewise FPM.
func NewPiecewise() *Piecewise { return &Piecewise{} }

// Name implements core.Model.
func (m *Piecewise) Name() string { return KindPiecewise }

// Update implements core.Model.
func (m *Piecewise) Update(p core.Point) error {
	if err := m.set.add(p); err != nil {
		return err
	}
	return m.rebuild()
}

// Fit adds every point and rebuilds once; core.UpdateAll calls it. The
// model ends as one Update per point would leave it.
func (m *Piecewise) Fit(pts []core.Point) error { return fit(m, &m.set, pts) }

func (m *Piecewise) rebuild() error {
	pts := m.set.pts
	m.coarseD = make([]float64, len(pts))
	m.coarseT = make([]float64, len(pts))
	prev := 0.0
	for i, p := range pts {
		t := p.Time
		// Clip upward to keep the coarsened times strictly increasing:
		// the relative floor handles normal magnitudes, the absolute
		// floor handles zero and denormal times (where prev*(1+ε) would
		// round back to prev and InverseTime/lastSlope would divide by
		// zero, feeding NaN into the partitioner).
		if floor := math.Max(prev*(1+minTimeGrowth), prev+minModelTime); t < floor {
			t = floor
		}
		m.coarseD[i] = float64(p.D)
		m.coarseT[i] = t
		prev = t
	}
	m.itp = nil
	if len(m.coarseD) >= 2 {
		itp, err := interp.NewLinear(m.coarseD, m.coarseT)
		if err != nil {
			return fmt.Errorf("model: piecewise rebuild: %w", err)
		}
		m.itp = itp
	}
	return nil
}

// Time implements core.Model. Below the first measured size the time
// function is the line from the origin through the first point (constant
// speed); beyond the last it continues with the slope of the final segment.
// A model without an interpolant — one knot, or a rebuild that failed
// because two sizes rounded to one float64 knot — stays on the origin line.
func (m *Piecewise) Time(x float64) (float64, error) {
	if len(m.coarseD) == 0 {
		return 0, core.ErrEmptyModel
	}
	if x < 0 {
		return 0, fmt.Errorf("model: time undefined at negative size %g", x)
	}
	if x <= m.coarseD[0] || m.itp == nil {
		return m.coarseT[0] * x / m.coarseD[0], nil
	}
	return m.itp.At(x), nil
}

// InverseTime returns the size x ≥ 0 whose predicted time equals tau. It is
// the workhorse of the geometric partitioning algorithm (a horizontal cut
// of the time plane = a line through the origin of the speed plane).
// Non-positive tau maps to 0.
func (m *Piecewise) InverseTime(tau float64) (float64, error) {
	n := len(m.coarseD)
	if n == 0 {
		return 0, core.ErrEmptyModel
	}
	if tau <= 0 {
		return 0, nil
	}
	if tau <= m.coarseT[0] || n == 1 {
		return tau * m.coarseD[0] / m.coarseT[0], nil
	}
	if tau >= m.coarseT[n-1] {
		slope := m.lastSlope()
		return m.coarseD[n-1] + (tau-m.coarseT[n-1])/slope, nil
	}
	// Binary search over the strictly increasing coarse times.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if m.coarseT[mid] <= tau {
			lo = mid
		} else {
			hi = mid
		}
	}
	dT := m.coarseT[hi] - m.coarseT[lo]
	frac := (tau - m.coarseT[lo]) / dT
	return m.coarseD[lo] + frac*(m.coarseD[hi]-m.coarseD[lo]), nil
}

// lastSlope returns the slope of the final coarsened segment (strictly
// positive by construction), or the origin-line slope for single-point
// models.
func (m *Piecewise) lastSlope() float64 {
	n := len(m.coarseD)
	if n == 1 {
		return m.coarseT[0] / m.coarseD[0]
	}
	return (m.coarseT[n-1] - m.coarseT[n-2]) / (m.coarseD[n-1] - m.coarseD[n-2])
}

// Points implements core.Model, returning the raw (uncoarsened) points.
func (m *Piecewise) Points() []core.Point { return m.set.points() }

// CoarsenedKnots returns the coarsened (size, time) knots the model
// interpolates — the data the paper plots as the piecewise approximation in
// Fig. 2(a).
func (m *Piecewise) CoarsenedKnots() (sizes, times []float64) {
	return append([]float64(nil), m.coarseD...), append([]float64(nil), m.coarseT...)
}
