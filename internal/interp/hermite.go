package interp

import "math"

// Hermite is the monotone piecewise-cubic interpolant of Fritsch and
// Carlson (SIAM J. Numer. Anal. 17(2), 1980): a C¹ cubic Hermite spline
// whose knot slopes are limited so that the interpolant is monotone on
// every interval where the data is monotone. For FuPerMod it offers a
// middle ground between the coarsened piecewise-linear model (monotone but
// only C⁰) and the Akima spline (C¹ but free to overshoot): time functions
// interpolated from monotone measurements stay monotone, so their inverse
// — which the τ-bisection partitioners rely on — always exists.
type Hermite struct {
	xs, ys []float64
	m      []float64 // knot derivatives after monotonicity limiting
}

// NewHermite builds the monotone cubic interpolant through the given
// points. The xs must be strictly increasing; at least two points are
// required. The interpolant keeps xs and ys, not copies: it owns them from
// here on, and the caller must not write to them again.
func NewHermite(xs, ys []float64) (*Hermite, error) {
	if err := validate(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	h := &Hermite{xs: xs, ys: ys, m: make([]float64, n)}
	// Secant slopes.
	d := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		d[i] = (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
	}
	// Initial knot slopes: one-sided at the ends, arithmetic mean of
	// neighbouring secants inside (set to 0 across local extrema).
	h.m[0] = d[0]
	h.m[n-1] = d[n-2]
	for i := 1; i < n-1; i++ {
		if d[i-1]*d[i] <= 0 {
			h.m[i] = 0
		} else {
			h.m[i] = (d[i-1] + d[i]) / 2
		}
	}
	// Fritsch–Carlson limiting: for each interval with non-zero secant,
	// keep (α, β) = (m_i/d_i, m_{i+1}/d_i) inside the circle of radius 3.
	for i := 0; i < n-1; i++ {
		if d[i] == 0 {
			h.m[i] = 0
			h.m[i+1] = 0
			continue
		}
		alpha := h.m[i] / d[i]
		beta := h.m[i+1] / d[i]
		// Slopes opposing the secant cannot be monotone: clamp to 0.
		if alpha < 0 {
			h.m[i] = 0
			alpha = 0
		}
		if beta < 0 {
			h.m[i+1] = 0
			beta = 0
		}
		if s := alpha*alpha + beta*beta; s > 9 {
			tau := 3 / math.Sqrt(s)
			h.m[i] = tau * alpha * d[i]
			h.m[i+1] = tau * beta * d[i]
		}
	}
	return h, nil
}

// At evaluates the interpolant at x; outside the domain it continues
// linearly with the boundary derivative.
func (h *Hermite) At(x float64) float64 {
	n := len(h.xs)
	if x <= h.xs[0] {
		return h.ys[0] + h.m[0]*(x-h.xs[0])
	}
	if x >= h.xs[n-1] {
		return h.ys[n-1] + h.m[n-1]*(x-h.xs[n-1])
	}
	i := segment(h.xs, x)
	hl := h.xs[i+1] - h.xs[i]
	t := (x - h.xs[i]) / hl
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*h.ys[i] + h10*hl*h.m[i] + h01*h.ys[i+1] + h11*hl*h.m[i+1]
}

// Deriv evaluates the first derivative, constant outside the domain.
func (h *Hermite) Deriv(x float64) float64 {
	n := len(h.xs)
	if x <= h.xs[0] {
		return h.m[0]
	}
	if x >= h.xs[n-1] {
		return h.m[n-1]
	}
	i := segment(h.xs, x)
	hl := h.xs[i+1] - h.xs[i]
	t := (x - h.xs[i]) / hl
	t2 := t * t
	dh00 := 6*t2 - 6*t
	dh10 := 3*t2 - 4*t + 1
	dh01 := -6*t2 + 6*t
	dh11 := 3*t2 - 2*t
	return dh00*h.ys[i]/hl + dh10*h.m[i] + dh01*h.ys[i+1]/hl + dh11*h.m[i+1]
}

// Domain reports the sampled interval.
func (h *Hermite) Domain() (lo, hi float64) { return h.xs[0], h.xs[len(h.xs)-1] }

// Knots returns copies of the interpolation knots.
func (h *Hermite) Knots() (xs, ys []float64) {
	return append([]float64(nil), h.xs...), append([]float64(nil), h.ys...)
}
