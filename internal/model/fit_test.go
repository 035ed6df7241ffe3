package model

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/platform"
)

// The bulk fit core.UpdateAll takes for the kinds whose state is a function
// of their point set.
var (
	_ interface{ Fit([]core.Point) error } = (*Piecewise)(nil)
	_ interface{ Fit([]core.Point) error } = (*Akima)(nil)
	_ interface{ Fit([]core.Point) error } = (*Hermite)(nil)
)

// fitProbes lists the sizes modelState evaluates for a point sequence:
// each size, its neighbours and the midpoint below it, the region below
// the first size and past the last, and a negative size.
func fitProbes(pts []core.Point) []float64 {
	xs := []float64{-1, 0, 0.5, 1}
	hi := 1.0
	for _, p := range pts {
		d := float64(p.D)
		xs = append(xs, d, d/2, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
		hi = math.Max(hi, d)
	}
	return append(xs, hi*1.5, hi*4)
}

// deriver is a model with a derivative: the Akima and Hermite FPMs.
type deriver interface {
	Deriv(float64) (float64, error)
}

// modelState renders what a model shows through its methods at the
// probes, times as bit patterns, so two renderings are equal only for
// bit-identical models. A call that panics renders its panic.
func modelState(m core.Model, probes []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "points %v\n", m.Points())
	if pw, ok := m.(*Piecewise); ok {
		d, t := pw.CoarsenedKnots()
		fmt.Fprintf(&b, "knots %v %v\n", d, t)
	}
	eval := func(name string, f func(float64) (float64, error), x float64) {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(&b, "%s(%v) panics: %v\n", name, x, r)
			}
		}()
		v, err := f(x)
		fmt.Fprintf(&b, "%s(%v) = %#x %v\n", name, x, math.Float64bits(v), err)
	}
	for _, x := range probes {
		eval("Time", m.Time, x)
		if dm, ok := m.(deriver); ok {
			eval("Deriv", dm.Deriv, x)
		}
	}
	return b.String()
}

// diffFit builds a model of kind twice: start through Update, then pts
// once through core.UpdateAll and once through a plain Update loop. It
// returns where the two differ — error or state — or where a method of
// either panics, or "". A failed Update or fit leaves a model that must
// still answer, if only with an error.
func diffFit(kind string, start, pts []core.Point) string {
	seq, _ := New(kind)
	bulk, _ := New(kind)
	for _, p := range start {
		seq.Update(p)
		bulk.Update(p)
	}
	seqErr := fmt.Sprint(core.UpdateEach(seq, pts))
	bulkErr := fmt.Sprint(core.UpdateAll(bulk, pts))
	if seqErr != bulkErr {
		return fmt.Sprintf("%s: UpdateAll error %q, Update loop %q", kind, bulkErr, seqErr)
	}
	probes := fitProbes(append(append([]core.Point(nil), start...), pts...))
	want := strings.Split(modelState(seq, probes), "\n")
	got := strings.Split(modelState(bulk, probes), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			return fmt.Sprintf("%s: UpdateAll gives %q, Update loop %q", kind, got[i:min(i+1, len(got))], want[i])
		}
		if strings.Contains(want[i], " panics: ") {
			return fmt.Sprintf("%s: %s", kind, want[i])
		}
	}
	return ""
}

// TestFitMatchesUpdates pins core.UpdateAll's bulk fit to the Update loop
// it replaces, for every kind: the same error and bit-identical state.
func TestFitMatchesUpdates(t *testing.T) {
	dev := platform.NetlibBLASCore()
	sorted := measure(dev, core.LogSizes(16, 60000, 40))
	rng := rand.New(rand.NewSource(3))
	noisy := append([]core.Point(nil), sorted...)
	for i := range noisy {
		noisy[i].Time *= 1 + 0.4*rng.Float64() // dips that coarsening clips
		noisy[i].Reps = 1 + rng.Intn(5)
		noisy[i].CI = 1e-3 * noisy[i].Time
	}
	shuffled := append([]core.Point(nil), noisy...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	with := func(pts []core.Point, at int, p core.Point) []core.Point {
		out := append([]core.Point(nil), pts[:at]...)
		return append(append(out, p), pts[at:]...)
	}
	huge := int(maxExactSize)
	cases := []struct {
		name       string
		start, pts []core.Point
	}{
		{name: "empty"},
		{name: "one point", pts: sorted[:1]},
		{name: "sorted", pts: sorted},
		{name: "noisy", pts: noisy},
		{name: "out of order", pts: shuffled},
		{name: "repeated sizes", pts: append(append(append([]core.Point(nil), shuffled...), noisy[3:9]...), noisy[5], sorted[5], noisy[0])},
		{name: "zero times", pts: []core.Point{
			{D: 10, Time: 0, Reps: 1}, {D: 20, Time: 0, Reps: 2}, {D: 40, Time: 1e-3, Reps: 1},
			{D: 30, Time: 0, Reps: 1}, {D: 20, Time: 0, Reps: 1}, {D: 80, Time: 0, Reps: 3},
		}},
		{name: "invalid size in the middle", pts: with(shuffled, 17, core.Point{D: 0, Time: 1})},
		{name: "negative time in the middle", pts: with(shuffled, 23, core.Point{D: 77, Time: -1})},
		{name: "NaN time in the middle", pts: with(noisy, 9, core.Point{D: 77, Time: math.NaN()})},
		{name: "invalid first", pts: with(noisy, 0, core.Point{D: 5, Time: math.Inf(1)})},
		{name: "onto a built model", start: shuffled[:11], pts: shuffled[7:]},
		{name: "invalid onto a built model", start: noisy[:4], pts: with(noisy[2:], 3, core.Point{D: -3, Time: 1})},
		{name: "sizes past 2^53", pts: []core.Point{
			{D: 100, Time: 1, Reps: 1}, {D: huge + 1, Time: 3, Reps: 1}, {D: huge, Time: 2, Reps: 1}, {D: 50, Time: 0.5, Reps: 1},
		}},
		{name: "onto a model whose sizes past 2^53 collide", start: []core.Point{{D: huge, Time: 4, Reps: 1}, {D: huge + 1, Time: 5, Reps: 1}}, pts: sorted[:6]},
	}
	for _, tc := range cases {
		for _, kind := range Kinds() {
			if d := diffFit(kind, tc.start, tc.pts); d != "" {
				t.Errorf("%s: %s", tc.name, d)
			}
		}
	}
}

// BenchmarkPiecewiseFit times a 40-point piecewise fit from a finished
// sweep through core.UpdateAll's bulk fit and, as its reference, through
// one Update per point.
func BenchmarkPiecewiseFit(b *testing.B) {
	pts := measure(platform.NetlibBLASCore(), core.LogSizes(16, 60000, 40))
	for _, bm := range []struct {
		name string
		fit  func(core.Model, []core.Point) error
	}{{"fit", core.UpdateAll}, {"update-each", core.UpdateEach}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bm.fit(NewPiecewise(), pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFitAllocationBudget: fitting a 40-point sweep allocates only what
// the model keeps. The piecewise model keeps its point set, its two
// coarse-knot arrays (read by the interpolant, not copied) and the
// interpolant; the Akima model its point set, its two knot arrays and the
// spline with its knot slopes, plus the spline's secant scratch.
func TestFitAllocationBudget(t *testing.T) {
	pts := measure(platform.NetlibBLASCore(), core.LogSizes(16, 60000, 40))
	for _, c := range []struct {
		kind   string
		budget float64
	}{
		{KindPiecewise, 5},
		{KindAkima, 7},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			m, err := New(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.UpdateAll(m, pts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: a 40-point fit allocates %v times, budget %v", c.kind, allocs, c.budget)
		}
	}
}

// TestRebuildLeavesOldKnots: a rebuild builds its knots in fresh arrays,
// so an interpolant it replaces still reads the knots it was built on.
func TestRebuildLeavesOldKnots(t *testing.T) {
	m := NewPiecewise()
	if err := core.UpdateAll(m, []core.Point{{D: 10, Time: 1, Reps: 1}, {D: 20, Time: 2, Reps: 1}, {D: 40, Time: 4, Reps: 1}}); err != nil {
		t.Fatal(err)
	}
	old := m.itp
	want := old.At(30)
	// A repeated size merges in place, so the rebuild has as many knots
	// as before.
	if err := m.Update(core.Point{D: 20, Time: 3, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	if got := old.At(30); got != want {
		t.Errorf("a rebuild rewrote the replaced interpolant's knots: At(30) = %v, want %v", got, want)
	}
}
