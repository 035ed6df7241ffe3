// Package transfer warm-starts a new device's performance model from the
// measurement database instead of paying a full benchmark sweep — the
// cost-effective-measurement theme of the paper applied fleet-wide.
// Stevens–Klöckner (arXiv 1904.09538) show black-box performance models
// trade accuracy for scope across machines; this package makes that trade
// explicit and bounded:
//
//   - every stored speed curve is indexed by a scale-free shape fingerprint
//     (FingerprintPoints): the log-speed profile resampled at canonical
//     relative positions with its mean removed, so two devices differing by
//     a pure speed factor have identical fingerprints;
//   - a cold device is probed at k spread-out grid sizes, the nearest
//     fingerprints are rescaled onto the probes by a least-squares time
//     factor, and a residual gate rejects donors whose *shape* disagrees
//     (a good scale fit with a bad shape is exactly the adversarial donor
//     this gate exists for);
//   - an active-sampling loop then measures, one probe at a time, the grid
//     size where the rescaled donor curve and the interpolant over the
//     measured probes disagree most — the model's own uncertainty estimate —
//     until the disagreement everywhere is within tolerance or the probe
//     budget is spent.
//
// When no donor passes the gate (empty store, dissimilar hardware, or a
// donor that diverges mid-loop) Acquire signals fallback instead of
// guessing: the caller runs its ordinary full sweep and serves exact
// measurements. Transfer degrades to the status quo, never below it.
package transfer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"fupermod/internal/core"
)

// minTime floors every time value before a log transform, matching the
// floor the verification generators and piecewise models use for
// degenerate (zero-time) measurements.
const minTime = 1e-12

// Defaults for Config fields left zero.
const (
	// DefaultProbes is the initial probe count k.
	DefaultProbes = 4
	// DefaultTol is the convergence tolerance on the maximum log-space
	// disagreement between donor and interpolant (≈ relative time error).
	DefaultTol = 0.02
	// DefaultGate is the residual gate: a donor whose rescaled curve
	// misses any measured probe by more than this (in log space) is not a
	// shape match and is rejected.
	DefaultGate = 0.10
	// DefaultCandidates bounds how many fingerprint-nearest donors are
	// rescaled and gated; ranking is cheap, gating costs a curve fit each.
	DefaultCandidates = 4
)

// FingerprintSize is the number of canonical sample positions of a curve
// fingerprint.
const FingerprintSize = 16

// Fingerprint is the scale-free shape signature of one speed curve: the
// log-speed profile sampled at FingerprintSize geometrically spaced
// positions across the curve's measured range, mean-removed. Curves that
// differ by a constant speed factor — the same silicon running at another
// clock — have equal fingerprints; curves with different *shapes* (a cache
// plateau, a GPU memory cliff) do not.
type Fingerprint [FingerprintSize]float64

// FingerprintPoints computes the fingerprint of a measured curve. At least
// two distinct sizes are required.
func FingerprintPoints(pts []core.Point) (Fingerprint, error) {
	var fp Fingerprint
	c, err := newCurve(pts)
	if err != nil {
		return fp, err
	}
	lo, hi := c.lx[0], c.lx[len(c.lx)-1]
	mean := 0.0
	for i := 0; i < FingerprintSize; i++ {
		x := lo + (hi-lo)*float64(i)/float64(FingerprintSize-1)
		// log speed = log x − log t(x).
		fp[i] = x - c.logTimeAt(x)
		mean += fp[i]
	}
	mean /= FingerprintSize
	for i := range fp {
		fp[i] -= mean
	}
	return fp, nil
}

// Distance is the root-mean-square difference between two fingerprints —
// 0 for identical shapes, growing with shape divergence.
func (f Fingerprint) Distance(g Fingerprint) float64 {
	s := 0.0
	for i := range f {
		d := f[i] - g[i]
		s += d * d
	}
	return math.Sqrt(s / FingerprintSize)
}

// curve is a piecewise-linear interpolant of log-time over log-size: the
// natural space for speed curves, where a constant speed factor is an
// additive offset and geometric size grids are evenly spaced. Outside the
// measured range it extrapolates with the edge segment's slope.
type curve struct {
	lx, lt []float64 // strictly increasing log sizes, matching log times
}

// newCurve builds the interpolant from measured points (any order;
// duplicate sizes keep the last point). At least two distinct sizes are
// required — a single point has no shape.
func newCurve(pts []core.Point) (*curve, error) {
	sorted := make([]core.Point, 0, len(pts))
	for _, p := range pts {
		if p.D <= 0 {
			return nil, fmt.Errorf("transfer: point has non-positive size %d", p.D)
		}
		sorted = append(sorted, p)
	}
	slices.SortStableFunc(sorted, func(a, b core.Point) int { return cmp.Compare(a.D, b.D) })
	c := &curve{lx: make([]float64, 0, len(sorted)), lt: make([]float64, 0, len(sorted))}
	for _, p := range sorted {
		lx := math.Log(float64(p.D))
		lt := math.Log(math.Max(p.Time, minTime))
		if n := len(c.lx); n > 0 && c.lx[n-1] == lx {
			c.lt[n-1] = lt
			continue
		}
		c.lx = append(c.lx, lx)
		c.lt = append(c.lt, lt)
	}
	if len(c.lx) < 2 {
		return nil, fmt.Errorf("transfer: need at least 2 distinct sizes, got %d", len(c.lx))
	}
	return c, nil
}

// logTimeAt evaluates the interpolant at log-size x.
func (c *curve) logTimeAt(x float64) float64 {
	n := len(c.lx)
	// Locate the segment by binary search; clamp to the edge segments for
	// extrapolation.
	i := sort.SearchFloat64s(c.lx, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := c.lx[i-1], c.lx[i]
	t0, t1 := c.lt[i-1], c.lt[i]
	return t0 + (t1-t0)*(x-x0)/(x1-x0)
}

// timeAt evaluates the interpolated time at size d.
func (c *curve) timeAt(d int) float64 {
	return math.Exp(c.logTimeAt(math.Log(float64(d))))
}

// Donor is one stored curve offered for warm-starting.
type Donor struct {
	// ID identifies the donor in provenance records and reports. It must
	// be printable ASCII (store keys escape free-form fields).
	ID string
	// Points is the donor's full stored sweep.
	Points []core.Point
}

// Candidate is a donor ranked against a probe set.
type Candidate struct {
	Donor Donor
	// Distance is the fingerprint distance to the probed curve.
	Distance float64
}

// Rank orders donors by fingerprint distance to the probed curve
// (ties broken by ID, so the ranking is deterministic) and returns at most
// max candidates (max <= 0 returns all). Donors whose points cannot be
// fingerprinted are dropped.
func Rank(donors []Donor, probes []core.Point, max int) []Candidate {
	r := NewRanker(probes)
	out := make([]Candidate, 0, len(donors))
	for _, d := range donors {
		dfp, err := FingerprintPoints(d.Points)
		if err != nil {
			continue
		}
		out = append(out, Candidate{Donor: d, Distance: r.Distance(dfp)})
	}
	slices.SortStableFunc(out, func(a, b Candidate) int {
		return CompareRanked(a.Distance, a.Donor.ID, b.Distance, b.Donor.ID)
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Ranker is the distance half of Rank's order for one probe set. A caller
// holding cached donor fingerprints (the model store's donor index) ranks
// through it and CompareRanked exactly as Rank does, without
// re-fingerprinting any curve.
type Ranker struct {
	probe Fingerprint
	ok    bool // the probes have a shape; otherwise every distance is 0
}

// NewRanker fingerprints the probed curve.
func NewRanker(probes []core.Point) Ranker {
	fp, err := FingerprintPoints(probes)
	return Ranker{probe: fp, ok: err == nil}
}

// Distance is a donor fingerprint's distance to the probed curve. Probes
// without a shape (fewer than two distinct sizes) put every donor at 0, so
// the order falls to the ID tie-break.
func (r Ranker) Distance(donor Fingerprint) float64 {
	if !r.ok {
		return 0
	}
	return r.probe.Distance(donor)
}

// CompareRanked is Rank's order on (distance, donor ID) pairs: nearest
// first, ties broken by donor ID. Rank keeps full ties in input order. The
// order is total: a NaN distance, which no finite curve gives, sorts first.
func CompareRanked(da float64, ida string, db float64, idb string) int {
	if c := cmp.Compare(da, db); c != 0 {
		return c
	}
	return strings.Compare(ida, idb)
}

// Pool adapts a fixed donor slice into a DonorSource: rank by fingerprint
// distance to the probes, return the top max (<= 0 returns all).
func Pool(donors []Donor, max int) DonorSource {
	return func(probes []core.Point) ([]Candidate, error) {
		return Rank(donors, probes, max), nil
	}
}

// Prober measures one grid size. core.NewProber builds one from a kernel.
type Prober = core.Prober

// DonorSource supplies ranked donor candidates once the initial probes are
// measured (the probes are what the fingerprint search keys on). The
// service and the bench CLI back this with a snapshot of the model store's
// donor index (modelstore.Donors); tests use Pool.
type DonorSource func(probes []core.Point) ([]Candidate, error)

// Config parametrises Acquire. Zero fields select the defaults above.
type Config struct {
	// Probes is the initial probe count k (>= 2).
	Probes int
	// Budget caps total benchmark calls, initial probes included; 0
	// selects a quarter of the grid. A budget that cannot beat the full
	// sweep makes Acquire fall back immediately.
	Budget int
	// Tol is the convergence tolerance: the active loop stops when the
	// largest donor-vs-interpolant disagreement (log space, ≈ relative
	// error) over the unmeasured sizes is below it.
	Tol float64
	// Gate is the donor residual gate in log space (≈ relative error): the
	// rescaled donor must reproduce every measured probe this closely.
	Gate float64
	// Candidates bounds the fingerprint-nearest donors that are rescaled
	// and gated.
	Candidates int
}

func (c Config) withDefaults(grid int) Config {
	if c.Probes == 0 {
		c.Probes = DefaultProbes
	}
	if c.Budget == 0 {
		c.Budget = grid / 4
	}
	if c.Tol == 0 {
		c.Tol = DefaultTol
	}
	if c.Gate == 0 {
		c.Gate = DefaultGate
	}
	if c.Candidates == 0 {
		c.Candidates = DefaultCandidates
	}
	return c
}

// Validate reports whether the (defaulted) config is usable.
func (c Config) Validate() error {
	if c.Probes < 2 {
		return fmt.Errorf("transfer: need at least 2 initial probes, got %d", c.Probes)
	}
	if c.Budget <= 0 {
		return fmt.Errorf("transfer: probe budget must be positive, got %d", c.Budget)
	}
	if !(c.Tol > 0) {
		return fmt.Errorf("transfer: tolerance must be positive, got %g", c.Tol)
	}
	if !(c.Gate > 0) {
		return fmt.Errorf("transfer: residual gate must be positive, got %g", c.Gate)
	}
	return nil
}

// Result is the outcome of one acquisition.
type Result struct {
	// Points is the full-grid point set: measured probes where the loop
	// benchmarked (Reps as measured), synthesized predictions elsewhere
	// (marked Reps=0, CI=0 — they consumed no kernel time and carry no
	// confidence interval). Nil when Fallback is set.
	Points []core.Point
	// Measured counts the benchmark calls actually made — on fallback,
	// the probes spent before giving up.
	Measured int
	// Donor, Scale identify the accepted donor and its fitted time factor.
	Donor string
	Scale float64
	// MaxDisagree is the final maximum log-space disagreement between the
	// rescaled donor and the probe interpolant over the synthesized sizes —
	// the accuracy bound the transferred model is served under.
	MaxDisagree float64
	// Fallback, when non-empty, says why no transfer happened; the caller
	// must run its ordinary full sweep (Acquire deliberately does not run
	// it: a fresh sweep on a fresh kernel is byte-identical to the
	// never-transferred path, which partial probe reuse would break).
	Fallback string
}

// fallback builds a fallback result.
func fallback(measured int, reason string) *Result {
	return &Result{Measured: measured, Fallback: reason}
}

// Acquire warm-starts a model over the given strictly increasing size grid:
// probe k sizes, pick the nearest gated donor, then actively sample the
// most uncertain size until tolerance or budget. See the package comment
// for the algorithm and the fallback contract.
func Acquire(sizes []int, probe Prober, donors DonorSource, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(len(sizes))
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, d := range sizes {
		if d <= 0 || (i > 0 && d <= sizes[i-1]) {
			return nil, fmt.Errorf("transfer: sizes must be strictly increasing and positive")
		}
	}
	if cfg.Budget >= len(sizes) {
		// Nothing to save: the budget admits the full grid, and the full
		// sweep is exact.
		return fallback(0, fmt.Sprintf("budget %d admits the full %d-size grid", cfg.Budget, len(sizes))), nil
	}
	if cfg.Probes >= cfg.Budget {
		return fallback(0, fmt.Sprintf("%d initial probes leave no budget (%d) for active sampling", cfg.Probes, cfg.Budget)), nil
	}

	// Initial probes: k indices spread evenly over the grid, endpoints
	// always included so the rescale fit spans the full range.
	measured := make(map[int]core.Point, cfg.Budget)
	var order []int // probed sizes in probe order (for the interpolant input)
	probeAt := func(d int) error {
		p, err := probe(d)
		if err != nil {
			return err
		}
		measured[d] = p
		order = append(order, d)
		return nil
	}
	for j := 0; j < cfg.Probes; j++ {
		i := j * (len(sizes) - 1) / (cfg.Probes - 1)
		d := sizes[i]
		if _, ok := measured[d]; ok {
			continue
		}
		if err := probeAt(d); err != nil {
			return nil, err
		}
	}
	probed := func() []core.Point {
		pts := make([]core.Point, 0, len(order))
		for _, d := range order {
			pts = append(pts, measured[d])
		}
		return pts
	}

	cands, err := donors(probed())
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return fallback(len(order), "no donor curves available"), nil
	}
	if cfg.Candidates > 0 && len(cands) > cfg.Candidates {
		cands = cands[:cfg.Candidates]
	}

	// Rescale every candidate onto the probes and gate on the worst
	// residual: the winner is the donor whose *shape* explains the probes
	// best, whatever its absolute speed.
	var best *curve
	bestID := ""
	bestResid := math.Inf(1)
	for _, cand := range cands {
		c, err := newCurve(cand.Donor.Points)
		if err != nil {
			continue
		}
		_, resid := fitScale(c, probed())
		if resid < bestResid {
			best, bestID, bestResid = c, cand.Donor.ID, resid
		}
	}
	if best == nil || bestResid > cfg.Gate {
		return fallback(len(order), fmt.Sprintf(
			"no donor within the residual gate (best %.3g > %.3g)", bestResid, cfg.Gate)), nil
	}

	// Active sampling: re-fit the scale and the probe interpolant after
	// every measurement, re-check the gate (a donor that looked right on k
	// probes can diverge on the fifth), and spend the next probe where the
	// two models disagree most.
	var scale, maxDiff float64
	for {
		interp, err := newCurve(probed())
		if err != nil {
			return nil, err
		}
		var resid float64
		scale, resid = fitScale(best, probed())
		if resid > cfg.Gate {
			return fallback(len(order), fmt.Sprintf(
				"donor %s diverged from the probes (residual %.3g > %.3g)", bestID, resid, cfg.Gate)), nil
		}
		logScale := math.Log(scale)
		maxDiff = 0
		argmax := 0
		for _, d := range sizes {
			if _, ok := measured[d]; ok {
				continue
			}
			lx := math.Log(float64(d))
			diff := math.Abs(logScale + best.logTimeAt(lx) - interp.logTimeAt(lx))
			if diff > maxDiff {
				maxDiff, argmax = diff, d
			}
		}
		if maxDiff <= cfg.Tol || len(order) >= cfg.Budget || argmax == 0 {
			// Converged, budget spent, or everything measured: synthesize
			// the remaining sizes as the geometric mean of the two
			// agreeing estimates.
			pts := make([]core.Point, len(sizes))
			for i, d := range sizes {
				if p, ok := measured[d]; ok {
					pts[i] = p
					continue
				}
				lx := math.Log(float64(d))
				lt := (logScale + best.logTimeAt(lx) + interp.logTimeAt(lx)) / 2
				pts[i] = core.Point{D: d, Time: math.Exp(lt)}
			}
			return &Result{
				Points:      pts,
				Measured:    len(order),
				Donor:       bestID,
				Scale:       scale,
				MaxDisagree: maxDiff,
			}, nil
		}
		if err := probeAt(argmax); err != nil {
			return nil, err
		}
	}
}

// fitScale fits the least-squares time factor mapping the donor curve onto
// the probes (in log space the closed form is the mean log ratio) and
// returns it with the worst absolute log residual — the shape-mismatch
// measure the gate tests.
func fitScale(donor *curve, probes []core.Point) (scale, maxResid float64) {
	mean := 0.0
	for _, p := range probes {
		mean += math.Log(math.Max(p.Time, minTime)) - donor.logTimeAt(math.Log(float64(p.D)))
	}
	mean /= float64(len(probes))
	for _, p := range probes {
		r := math.Abs(math.Log(math.Max(p.Time, minTime)) - mean - donor.logTimeAt(math.Log(float64(p.D))))
		if r > maxResid {
			maxResid = r
		}
	}
	return math.Exp(mean), maxResid
}
