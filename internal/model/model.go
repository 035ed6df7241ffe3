// Package model implements FuPerMod's computation performance models
// (paper §4.2): the constant performance model (CPM), the functional
// performance model (FPM) based on piecewise-linear interpolation of the
// time function with shape coarsening, the FPM based on Akima-spline
// interpolation, and a linear time model in the style of Qilin (Luk, Hong,
// Kim, MICRO-42) as an additional baseline.
//
// Every model approximates the *time* function t(x) of a process — seconds
// to compute x computation units — from measured core.Points; speed is
// derived as s(x) = x/t(x) (multiply by the kernel's per-unit complexity
// for FLOPS). Models are refined incrementally through Update, which is
// what the dynamic partitioning and load-balancing algorithms rely on.
package model

import (
	"fmt"
	"sort"

	"fupermod/internal/core"
)

// Kinds of models constructible by New.
const (
	KindConstant  = "cpm"
	KindAdaptive  = "cpm-adaptive"
	KindPiecewise = "fpm-piecewise"
	KindAkima     = "fpm-akima"
	KindHermite   = "fpm-hermite"
	KindLinear    = "linear"
)

// New constructs an empty model of the named kind. It is the registry used
// by the command-line tools' -model flag.
func New(kind string) (core.Model, error) {
	switch kind {
	case KindConstant:
		return NewConstant(), nil
	case KindAdaptive:
		return NewAdaptive(), nil
	case KindPiecewise:
		return NewPiecewise(), nil
	case KindAkima:
		return NewAkima(), nil
	case KindHermite:
		return NewHermite(), nil
	case KindLinear:
		return NewLinear(), nil
	default:
		return nil, fmt.Errorf("model: unknown kind %q (want one of %v)", kind, Kinds())
	}
}

// Kinds lists the constructible model kinds. (Analytical models are built
// with NewAnalytical — they need a formula, so they have no registry
// entry.)
func Kinds() []string {
	return []string{KindConstant, KindAdaptive, KindPiecewise, KindAkima, KindHermite, KindLinear}
}

// pointSet is the shared storage of measured points, kept sorted by size
// with one point per size (repeated measurements of the same size are
// merged by time-weighted averaging, matching how FuPerMod accumulates
// repeated benchmarks).
type pointSet struct {
	pts []core.Point
}

// add merges p into the set and reports the insertion index.
func (s *pointSet) add(p core.Point) error {
	if err := p.Validate(); err != nil {
		return err
	}
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].D >= p.D })
	if i < len(s.pts) && s.pts[i].D == p.D {
		// Merge with the existing measurement at this size: the combined
		// point carries the rep-weighted mean time.
		old := s.pts[i]
		wOld, wNew := float64(max(old.Reps, 1)), float64(max(p.Reps, 1))
		merged := core.Point{
			D:    p.D,
			Time: (old.Time*wOld + p.Time*wNew) / (wOld + wNew),
			Reps: max(old.Reps, 1) + max(p.Reps, 1),
			CI:   (old.CI*wOld + p.CI*wNew) / (wOld + wNew),
		}
		s.pts[i] = merged
		return nil
	}
	s.pts = append(s.pts, core.Point{})
	copy(s.pts[i+1:], s.pts[i:])
	s.pts[i] = p
	return nil
}

// setModel is a model whose state is a function of its point set alone:
// rebuild derives it from the set, and Update is an add and a rebuild.
type setModel interface {
	core.Model
	rebuild() error
}

// maxExactSize bounds the sizes whose float64 knots are exact: below it,
// distinct sizes make distinct knots, so a rebuild cannot fail.
const maxExactSize int64 = 1 << 53

// fit is the Fit of a setModel m over its set s: it adds pts in input
// order, merging repeated sizes as Update would, and then rebuilds once.
// That leaves the state and the error of one Update per point: an invalid
// point stops the adds, and the rebuild covers the points added before it.
// When a size reaches maxExactSize, where a rebuild can fail on two equal
// knots, fit runs the Updates themselves, so the failure comes at the same
// point. The set grows once, to room for every point, before the adds: a
// sweep's sizes are distinct, so that is the set's final length.
func fit(m setModel, s *pointSet, pts []core.Point) error {
	if !exactSizes(s.pts) || !exactSizes(pts) {
		return core.UpdateEach(m, pts)
	}
	if n := len(s.pts) + len(pts); cap(s.pts) < n {
		grown := make([]core.Point, len(s.pts), n)
		copy(grown, s.pts)
		s.pts = grown
	}
	for _, p := range pts {
		if err := s.add(p); err != nil {
			_ = m.rebuild() // cannot fail: every size is exact
			return err
		}
	}
	return m.rebuild()
}

func exactSizes(pts []core.Point) bool {
	for _, p := range pts {
		if int64(p.D) >= maxExactSize {
			return false
		}
	}
	return true
}

// points returns a copy of the stored points.
func (s *pointSet) points() []core.Point {
	return append([]core.Point(nil), s.pts...)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
