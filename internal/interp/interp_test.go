package interp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidateErrors(t *testing.T) {
	if _, err := NewLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("one point should be rejected")
	}
	if _, err := NewLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if _, err := NewLinear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("duplicate x should be rejected")
	}
	if _, err := NewLinear([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Error("decreasing x should be rejected")
	}
	if _, err := NewAkima([]float64{3, 2, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("Akima with decreasing x should be rejected")
	}
}

func TestLinearExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 3, 7}
	ys := []float64{2, -1, 5, 5}
	l, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := l.At(xs[i]); got != ys[i] {
			t.Errorf("At(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestLinearInterpolationAndExtrapolation(t *testing.T) {
	l, _ := NewLinear([]float64{0, 2, 4}, []float64{0, 4, 4})
	if got := l.At(1); got != 2 {
		t.Errorf("At(1) = %g, want 2", got)
	}
	if got := l.At(3); got != 4 {
		t.Errorf("At(3) = %g, want 4", got)
	}
	// Left extrapolation with slope 2; right with slope 0.
	if got := l.At(-1); got != -2 {
		t.Errorf("At(-1) = %g, want -2", got)
	}
	if got := l.At(10); got != 4 {
		t.Errorf("At(10) = %g, want 4", got)
	}
	if got := l.Deriv(1); got != 2 {
		t.Errorf("Deriv(1) = %g, want 2", got)
	}
	if got := l.Deriv(3.5); got != 0 {
		t.Errorf("Deriv(3.5) = %g, want 0", got)
	}
	lo, hi := l.Domain()
	if lo != 0 || hi != 4 {
		t.Errorf("Domain = [%g, %g], want [0, 4]", lo, hi)
	}
}

// TestConstructorsKeepInput: each constructor keeps the slices it is
// given, so an interpolant reads its caller's knots instead of a copy.
func TestConstructorsKeepInput(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{0, 1, 3, 4}
	l, err := NewLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHermite(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		kx, ky []float64
	}{
		{"linear", l.xs, l.ys},
		{"akima", a.xs, a.ys},
		{"hermite", h.xs, h.ys},
	} {
		if &c.kx[0] != &xs[0] || &c.ky[0] != &ys[0] || len(c.kx) != len(xs) || len(c.ky) != len(ys) {
			t.Errorf("%s: the interpolant does not read the slices it was given", c.name)
		}
	}
	if got := l.At(3); got != 3.5 {
		t.Errorf("linear At(3) = %g, want 3.5", got)
	}
}

func TestAkimaExactAtKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 4, 5, 8, 9}
	ys := []float64{1, 3, 2, 2, 7, 0, 1}
	a, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := a.At(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestAkimaReproducesLines(t *testing.T) {
	// Any polynomial of degree ≤1 must be reproduced exactly for every n.
	for n := 2; n <= 9; n++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) * 1.5
			ys[i] = 3*xs[i] - 2
		}
		a, err := NewAkima(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for x := -2.0; x < 15; x += 0.37 {
			if got, want := a.At(x), 3*x-2; math.Abs(got-want) > 1e-10 {
				t.Fatalf("n=%d: At(%g) = %g, want %g", n, x, got, want)
			}
			if got := a.Deriv(x); math.Abs(got-3) > 1e-10 {
				t.Fatalf("n=%d: Deriv(%g) = %g, want 3", n, x, got)
			}
		}
	}
}

func TestAkimaFlatRegionsStayFlat(t *testing.T) {
	// Akima's signature property: a step between two flat regions does not
	// cause ringing in the flat parts (unlike the natural cubic spline).
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	ys := []float64{0, 0, 0, 0, 1, 1, 1, 1}
	a, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 2.0; x += 0.1 {
		if got := a.At(x); math.Abs(got) > 1e-12 {
			t.Errorf("left flat region rings: At(%g) = %g", x, got)
		}
	}
	for x := 5.0; x <= 7.0; x += 0.1 {
		if got := a.At(x); math.Abs(got-1) > 1e-12 {
			t.Errorf("right flat region rings: At(%g) = %g", x, got)
		}
	}
}

func TestAkimaC1Continuity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 12)
	ys := make([]float64, 12)
	x := 0.0
	for i := range xs {
		x += 0.2 + rng.Float64()
		xs[i] = x
		ys[i] = rng.NormFloat64() * 5
	}
	a, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-7
	for i := 1; i < len(xs)-1; i++ {
		k := xs[i]
		vl, vr := a.At(k-h), a.At(k+h)
		if math.Abs(vl-vr) > 1e-5 {
			t.Errorf("value discontinuity at knot %d: %g vs %g", i, vl, vr)
		}
		dl, dr := a.Deriv(k-h), a.Deriv(k+h)
		if math.Abs(dl-dr) > 1e-4 {
			t.Errorf("derivative discontinuity at knot %d: %g vs %g", i, dl, dr)
		}
	}
}

func TestAkimaDerivMatchesFiniteDifference(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 5, 6, 8}
	ys := []float64{0, 2, 1, 4, 4, 7, 3}
	a, err := NewAkima(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for x := 0.1; x < 7.9; x += 0.173 {
		fd := (a.At(x+h) - a.At(x-h)) / (2 * h)
		if got := a.Deriv(x); math.Abs(got-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("Deriv(%g) = %g, finite difference %g", x, got, fd)
		}
	}
}

func TestAkimaLinearExtrapolation(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 1, 4, 9, 16}
	a, _ := NewAkima(xs, ys)
	// Beyond the right end the value must continue with constant slope.
	d := a.Deriv(4)
	for _, x := range []float64{4.5, 6, 10} {
		want := 16 + d*(x-4)
		if got := a.At(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("right extrapolation At(%g) = %g, want %g", x, got, want)
		}
		if got := a.Deriv(x); math.Abs(got-d) > 1e-12 {
			t.Errorf("right extrapolation Deriv(%g) = %g, want %g", x, got, d)
		}
	}
}

// quick property: both interpolators are exact at knots and Linear is
// monotone within each segment.
func TestInterpolatorsKnotProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%20
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := rng.Float64()
		for i := range xs {
			xs[i] = x
			x += 0.01 + rng.Float64()*3
			ys[i] = rng.NormFloat64() * 10
		}
		if !sort.Float64sAreSorted(xs) {
			return false
		}
		l, err := NewLinear(xs, ys)
		if err != nil {
			return false
		}
		a, err := NewAkima(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(l.At(xs[i])-ys[i]) > 1e-9 {
				return false
			}
			if math.Abs(a.At(xs[i])-ys[i]) > 1e-9*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAkimaKnotsAccessor(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{4, 5, 6}
	a, _ := NewAkima(xs, ys)
	gx, gy := a.Knots()
	gx[0] = -1
	gy[0] = -1
	gx2, _ := a.Knots()
	if gx2[0] != 1 {
		t.Error("Knots must return copies")
	}
	l, _ := NewLinear(xs, ys)
	lx, ly := l.Knots()
	if len(lx) != 3 || len(ly) != 3 || lx[2] != 3 || ly[2] != 6 {
		t.Error("Linear Knots wrong")
	}
}

// Compile-time checks: every interpolant satisfies the package contract.
var (
	_ Interpolator = (*Linear)(nil)
	_ Interpolator = (*Akima)(nil)
	_ Interpolator = (*Hermite)(nil)
)
