// Package interp implements the interpolation methods FuPerMod uses to turn
// discrete benchmark measurements into continuous time and speed functions:
// piecewise-linear interpolation (for the coarsened functional performance
// model used by the geometric partitioner) and Akima's spline (for the
// smooth model with continuous derivative used by the numerical
// partitioner).
//
// Both interpolators extrapolate linearly beyond the sampled domain, using
// the slope of the corresponding boundary segment; the modelling layer
// relies on this when a partitioner probes sizes slightly outside the
// measured range.
package interp

import (
	"errors"
	"fmt"
	"sort"
)

// Interpolator is a univariate function reconstructed from sample points.
type Interpolator interface {
	// At evaluates the interpolant.
	At(x float64) float64
	// Deriv evaluates the first derivative of the interpolant.
	Deriv(x float64) float64
	// Domain reports the sampled interval [lo, hi].
	Domain() (lo, hi float64)
}

// Errors returned by the constructors.
var (
	ErrTooFewPoints  = errors.New("interp: need at least two points")
	ErrNotIncreasing = errors.New("interp: x values must be strictly increasing")
)

// validate checks the shared constructor preconditions.
func validate(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("interp: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return ErrTooFewPoints
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return fmt.Errorf("%w: xs[%d]=%g <= xs[%d]=%g", ErrNotIncreasing, i, xs[i], i-1, xs[i-1])
		}
	}
	return nil
}

// segment locates the index i such that xs[i] < x <= xs[i+1], so an
// interior knot resolves to the segment on its left, clamping to the
// boundary segments for the first knot and out-of-domain x (linear
// extrapolation).
func segment(xs []float64, x float64) int {
	// sort.SearchFloat64s returns the insertion point.
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i == 0:
		return 0
	case i >= len(xs):
		return len(xs) - 2
	default:
		return i - 1
	}
}

// Linear is a piecewise-linear interpolant. Evaluation locates x's segment
// by binary search, as Akima and Hermite do.
type Linear struct {
	xs, ys []float64
}

// NewLinear builds a piecewise-linear interpolant through the given points.
// The xs must be strictly increasing and at least two points are required.
// The interpolant keeps xs and ys, not copies: it owns them from here on,
// and the caller must not write to them again.
func NewLinear(xs, ys []float64) (*Linear, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	return &Linear{xs: xs, ys: ys}, nil
}

// At evaluates the interpolant at x, extrapolating linearly outside the
// domain.
func (l *Linear) At(x float64) float64 {
	i := segment(l.xs, x)
	t := (x - l.xs[i]) / (l.xs[i+1] - l.xs[i])
	return l.ys[i] + t*(l.ys[i+1]-l.ys[i])
}

// Deriv returns the slope of the segment containing x. An interior knot
// takes the slope of the segment to its left, the first knot and any x
// below it the first segment's, and the last knot and any x beyond it the
// last segment's.
func (l *Linear) Deriv(x float64) float64 {
	i := segment(l.xs, x)
	return (l.ys[i+1] - l.ys[i]) / (l.xs[i+1] - l.xs[i])
}

// Domain reports the sampled interval.
func (l *Linear) Domain() (lo, hi float64) { return l.xs[0], l.xs[len(l.xs)-1] }

// Knots returns copies of the interpolation knots.
func (l *Linear) Knots() (xs, ys []float64) {
	return append([]float64(nil), l.xs...), append([]float64(nil), l.ys...)
}
