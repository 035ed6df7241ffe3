package interp

import "math"

// Akima is the spline interpolant of H. Akima (JACM 17(4), 1970): a C¹
// piecewise cubic whose knot derivatives are weighted averages of
// neighbouring secant slopes. Unlike the natural cubic spline it does not
// oscillate near steps and outliers, which is why FuPerMod adopted it for
// speed functions measured on real hardware (paper §4.2, Fig. 2(b)).
type Akima struct {
	xs, ys []float64
	// t holds the spline derivative at each knot; the cubic on segment i
	// is reconstructed from (ys[i], t[i], ys[i+1], t[i+1]).
	t []float64
}

// NewAkima builds an Akima spline through the given points. The xs must be
// strictly increasing; at least two points are required. With fewer than
// five points the classic construction degrades gracefully: the missing
// exterior slopes are supplied by Akima's quadratic end extrapolation, and
// with exactly two points the spline is the straight line through them.
// The spline keeps xs and ys, not copies: it owns them from here on, and
// the caller must not write to them again.
func NewAkima(xs, ys []float64) (*Akima, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	a := &Akima{xs: xs, ys: ys, t: make([]float64, n)}
	// Secant slopes with two extrapolated slopes on each side,
	// m[2..n] are the real slopes m_0..m_{n-2}; m[0], m[1] and
	// m[n+1], m[n+2] are Akima's end extensions.
	m := make([]float64, n+3)
	for i := 0; i < n-1; i++ {
		m[i+2] = (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
	}
	m[1] = 2*m[2] - m[3]
	m[0] = 2*m[1] - m[2]
	m[n+1] = 2*m[n] - m[n-1]
	m[n+2] = 2*m[n+1] - m[n]
	if n == 2 { // single real slope: force a straight line
		for i := range m {
			m[i] = m[2]
		}
	}
	for i := 0; i < n; i++ {
		// Knot i sees slopes m[i], m[i+1] (left) and m[i+2], m[i+3] (right).
		w1 := math.Abs(m[i+3] - m[i+2])
		w2 := math.Abs(m[i+1] - m[i])
		if w1+w2 == 0 {
			a.t[i] = (m[i+1] + m[i+2]) / 2
		} else {
			a.t[i] = (w1*m[i+1] + w2*m[i+2]) / (w1 + w2)
		}
	}
	return a, nil
}

// coeffs returns the cubic coefficients for segment i, such that for
// dx = x − xs[i]:
//
//	y(x) = ys[i] + t[i]·dx + c·dx² + d·dx³
func (a *Akima) coeffs(i int) (c, d float64) {
	h := a.xs[i+1] - a.xs[i]
	m := (a.ys[i+1] - a.ys[i]) / h
	c = (3*m - 2*a.t[i] - a.t[i+1]) / h
	d = (a.t[i] + a.t[i+1] - 2*m) / (h * h)
	return c, d
}

// At evaluates the spline at x. Outside the domain the spline is continued
// linearly with the boundary derivative, matching the behaviour the model
// layer expects from all interpolators.
func (a *Akima) At(x float64) float64 {
	n := len(a.xs)
	if x <= a.xs[0] {
		return a.ys[0] + a.t[0]*(x-a.xs[0])
	}
	if x >= a.xs[n-1] {
		return a.ys[n-1] + a.t[n-1]*(x-a.xs[n-1])
	}
	i := segment(a.xs, x)
	c, d := a.coeffs(i)
	dx := x - a.xs[i]
	return a.ys[i] + dx*(a.t[i]+dx*(c+dx*d))
}

// Deriv evaluates the spline derivative at x, constant outside the domain.
func (a *Akima) Deriv(x float64) float64 {
	n := len(a.xs)
	if x <= a.xs[0] {
		return a.t[0]
	}
	if x >= a.xs[n-1] {
		return a.t[n-1]
	}
	i := segment(a.xs, x)
	c, d := a.coeffs(i)
	dx := x - a.xs[i]
	return a.t[i] + dx*(2*c+3*d*dx)
}

// Domain reports the sampled interval.
func (a *Akima) Domain() (lo, hi float64) { return a.xs[0], a.xs[len(a.xs)-1] }

// Knots returns copies of the interpolation knots.
func (a *Akima) Knots() (xs, ys []float64) {
	return append([]float64(nil), a.xs...), append([]float64(nil), a.ys...)
}
