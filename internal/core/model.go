package core

import (
	"errors"
	"fmt"
)

// Model is a computation performance model of one process/device: a
// continuous approximation of its execution-time function built from
// measured Points. It mirrors fupermod_model. Implementations live in
// package model (constant, piecewise-linear FPM, Akima FPM, linear).
type Model interface {
	// Name identifies the model kind, e.g. "fpm-akima".
	Name() string
	// Time predicts the execution time, in seconds, of x computation
	// units, for x > 0. Implementations extrapolate outside the measured
	// range and return an error only if the model has too few points to
	// predict at all.
	Time(x float64) (float64, error)
	// Update incorporates one new measurement, refining the
	// approximation; it mirrors the update callback of fupermod_model.
	Update(p Point) error
	// Points returns the measurements the model was built from, in
	// increasing size order.
	Points() []Point
}

// ErrEmptyModel is returned by Time when a model has no points yet.
var ErrEmptyModel = errors.New("core: model has no measurements")

// ModelSpeed evaluates the modelled speed at size x in units/second,
// x / Time(x). The paper evaluates speed in FLOPS as
// complexity(x)/time(x); multiply by the kernel's per-unit complexity to
// convert.
func ModelSpeed(m Model, x float64) (float64, error) {
	if x <= 0 {
		return 0, fmt.Errorf("core: speed undefined at non-positive size %g", x)
	}
	t, err := m.Time(x)
	if err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, fmt.Errorf("core: model %q predicts non-positive time %g at x=%g", m.Name(), t, x)
	}
	return x / t, nil
}

// UpdateAll feeds every point to the model, stopping at the first error.
// A model whose state depends only on its final point set takes the whole
// set through its Fit method and rebuilds once, leaving the state and the
// error that feeding the points one at a time through Update would: a fit
// from a finished sweep then costs one rebuild, not one per point.
func UpdateAll(m Model, pts []Point) error {
	if f, ok := m.(interface{ Fit([]Point) error }); ok {
		return f.Fit(pts)
	}
	return UpdateEach(m, pts)
}

// UpdateEach feeds every point to the model's Update in turn, stopping at
// the first error: UpdateAll's path for a model without Fit, and the
// sequence a Fit must match.
func UpdateEach(m Model, pts []Point) error {
	for _, p := range pts {
		if err := m.Update(p); err != nil {
			return err
		}
	}
	return nil
}
