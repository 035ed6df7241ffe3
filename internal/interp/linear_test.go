package interp

import (
	"math"
	"testing"
)

// refKnots builds a 40-knot interpolant with irregular spacing.
func refKnots(t *testing.T) *Linear {
	t.Helper()
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	x := 1.0
	for i := range xs {
		xs[i] = x
		ys[i] = math.Sin(x/7)*5 + x*0.3
		x += 0.5 + 3*math.Abs(math.Sin(float64(i)))
	}
	l, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// adversarialQueries returns the queries most likely to expose a wrong
// segment: every knot exactly, every knot nudged one ulp to each side,
// midpoints, and far out-of-domain points on both sides.
func adversarialQueries(l *Linear) []float64 {
	xs, _ := l.Knots()
	var qs []float64
	for i, x := range xs {
		qs = append(qs, x,
			math.Nextafter(x, math.Inf(-1)),
			math.Nextafter(x, math.Inf(1)))
		if i+1 < len(xs) {
			qs = append(qs, (x+xs[i+1])/2)
		}
	}
	lo, hi := l.Domain()
	qs = append(qs, lo-100, lo-1e-9, hi+1e-9, hi+100, 0, -5)
	return qs
}

// TestLinearAtOnBracketingLine: At answers on the line through the two
// knots that bracket x, found here by a linear scan (the boundary pair
// outside the domain), at every adversarial query.
func TestLinearAtOnBracketingLine(t *testing.T) {
	l := refKnots(t)
	xs, ys := l.Knots()
	for _, x := range adversarialQueries(l) {
		i := 0
		for i+2 < len(xs) && xs[i+1] < x {
			i++
		}
		x0, x1, y0, y1 := xs[i], xs[i+1], ys[i], ys[i+1]
		want := (y0*(x1-x) + y1*(x-x0)) / (x1 - x0)
		if got := l.At(x); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("At(%v) = %v, want %v on the line through knots %d and %d", x, got, want, i, i+1)
		}
	}
}

// TestLinearDerivAtKnots pins which segment's slope Deriv reports: the
// first segment's at and below the first knot, the left segment's at an
// interior knot, and the last segment's at and beyond the last knot.
func TestLinearDerivAtKnots(t *testing.T) {
	l, err := NewLinear([]float64{1, 2, 4}, []float64{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		x, want float64
	}{
		{"below the domain", -3, 2},
		{"first knot", 1, 2},
		{"inside the first segment", 1.5, 2},
		{"interior knot", 2, 2},
		{"just right of the interior knot", math.Nextafter(2, 3), 0.5},
		{"last knot", 4, 0.5},
		{"beyond the domain", 10, 0.5},
	} {
		if got := l.Deriv(c.x); got != c.want {
			t.Errorf("%s: Deriv(%v) = %v, want %v", c.name, c.x, got, c.want)
		}
	}
}
