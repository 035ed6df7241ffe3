package model

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fupermod/internal/core"
	"fupermod/internal/platform"
)

// measure builds noiseless points from a platform device at the given
// sizes.
func measure(dev platform.Device, sizes []int) []core.Point {
	pts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		pts[i] = core.Point{D: d, Time: dev.BaseTime(float64(d)), Reps: 1}
	}
	return pts
}

func TestNewFactory(t *testing.T) {
	for _, kind := range Kinds() {
		m, err := New(kind)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if m.Name() != kind {
			t.Errorf("Name = %q, want %q", m.Name(), kind)
		}
		if _, err := m.Time(10); !errors.Is(err, core.ErrEmptyModel) {
			t.Errorf("%s: empty model should return ErrEmptyModel, got %v", kind, err)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestModelsRejectInvalidPoints(t *testing.T) {
	for _, kind := range Kinds() {
		m, _ := New(kind)
		if err := m.Update(core.Point{D: 0, Time: 1}); err == nil {
			t.Errorf("%s: invalid point accepted", kind)
		}
		if err := m.Update(core.Point{D: 5, Time: -2}); err == nil {
			t.Errorf("%s: negative time accepted", kind)
		}
		for _, tm := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := m.Update(core.Point{D: 5, Time: tm}); err == nil || !strings.Contains(err.Error(), "non-finite time") {
				t.Errorf("%s: time %g: err = %v, want non-finite time", kind, tm, err)
			}
		}
		if pts := m.Points(); len(pts) != 0 {
			t.Errorf("%s: rejected points kept: %v", kind, pts)
		}
	}
}

func TestConstantModel(t *testing.T) {
	c := NewConstant()
	if err := c.Update(core.Point{D: 100, Time: 2, Reps: 3}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Speed()
	if err != nil || s != 50 {
		t.Errorf("Speed = %g, %v; want 50", s, err)
	}
	tm, err := c.Time(200)
	if err != nil || tm != 4 {
		t.Errorf("Time(200) = %g, %v; want 4", tm, err)
	}
	// Second point shifts the average: 300 units in 8 seconds → 37.5 u/s.
	if err := c.Update(core.Point{D: 200, Time: 6, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	s, _ = c.Speed()
	if s != 37.5 {
		t.Errorf("Speed after update = %g, want 37.5", s)
	}
	if got := len(c.Points()); got != 2 {
		t.Errorf("Points len = %d", got)
	}
}

func TestPointSetMergesDuplicates(t *testing.T) {
	m := NewPiecewise()
	if err := m.Update(core.Point{D: 100, Time: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(core.Point{D: 100, Time: 4, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	pts := m.Points()
	if len(pts) != 1 {
		t.Fatalf("duplicate sizes must merge, got %d points", len(pts))
	}
	if pts[0].Time != 3 {
		t.Errorf("merged time = %g, want 3 (mean)", pts[0].Time)
	}
	if pts[0].Reps != 2 {
		t.Errorf("merged reps = %d, want 2", pts[0].Reps)
	}
}

func TestPiecewiseInterpolatesMonotoneData(t *testing.T) {
	m := NewPiecewise()
	for _, p := range []core.Point{{D: 10, Time: 1, Reps: 1}, {D: 20, Time: 2, Reps: 1}, {D: 40, Time: 6, Reps: 1}} {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	// Exact at knots.
	for _, c := range []struct{ x, want float64 }{{10, 1}, {20, 2}, {40, 6}, {30, 4}, {5, 0.5}, {0, 0}, {60, 10}} {
		got, err := m.Time(c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Time(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if _, err := m.Time(-1); err == nil {
		t.Error("negative size should error")
	}
}

// TestPiecewiseTimeDegenerateModels: an empty model refuses to predict,
// and a one-point model answers on the line from the origin through its
// point, below, at and beyond that point.
func TestPiecewiseTimeDegenerateModels(t *testing.T) {
	if _, err := NewPiecewise().Time(5); !errors.Is(err, core.ErrEmptyModel) {
		t.Errorf("empty model: err = %v, want ErrEmptyModel", err)
	}
	one := NewPiecewise()
	if err := one.Update(core.Point{D: 10, Time: 0.5, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, want float64 }{{0, 0}, {3, 0.15}, {10, 0.5}, {25, 1.25}} {
		got, err := one.Time(c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("single-point Time(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestPiecewiseCoarseningEnforcesMonotoneTime(t *testing.T) {
	m := NewPiecewise()
	// A speed spike: time at 30 dips below time at 20.
	pts := []core.Point{
		{D: 10, Time: 1.0, Reps: 1},
		{D: 20, Time: 2.0, Reps: 1},
		{D: 30, Time: 1.5, Reps: 1}, // violates monotonicity
		{D: 40, Time: 3.0, Reps: 1},
	}
	for _, p := range pts {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	ds, ts := m.CoarsenedKnots()
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("coarsened times not strictly increasing: %v", ts)
		}
	}
	if ds[2] != 30 || ts[2] <= 2.0 {
		t.Errorf("dip at d=30 should be clipped to > 2.0, got %g", ts[2])
	}
	// Raw points are preserved unmodified.
	raw := m.Points()
	if raw[2].Time != 1.5 {
		t.Errorf("raw point mutated: %g", raw[2].Time)
	}
}

func TestPiecewiseInverseRoundTrip(t *testing.T) {
	dev := platform.NetlibBLASCore()
	m := NewPiecewise()
	for _, p := range measure(dev, core.LogSizes(16, 5000, 25)) {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	f := func(tauRaw uint16) bool {
		tau := float64(tauRaw)/65535*10 + 1e-4 // times in (0, 10]
		x, err := m.InverseTime(tau)
		if err != nil || x < 0 {
			return false
		}
		back, err := m.Time(x)
		if err != nil {
			return false
		}
		return math.Abs(back-tau) < 1e-6*(1+tau)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// tau <= 0 maps to 0.
	if x, err := m.InverseTime(0); err != nil || x != 0 {
		t.Errorf("InverseTime(0) = %g, %v", x, err)
	}
}

func TestPiecewiseSinglePoint(t *testing.T) {
	m := NewPiecewise()
	if err := m.Update(core.Point{D: 50, Time: 5, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	tm, err := m.Time(100)
	if err != nil || tm != 10 {
		t.Errorf("single-point Time(100) = %g, %v; want 10 (constant speed)", tm, err)
	}
	x, err := m.InverseTime(2.5)
	if err != nil || x != 25 {
		t.Errorf("single-point InverseTime(2.5) = %g, %v; want 25", x, err)
	}
}

func TestPiecewiseEmpty(t *testing.T) {
	m := NewPiecewise()
	if _, err := m.InverseTime(1); !errors.Is(err, core.ErrEmptyModel) {
		t.Error("empty model inverse should be ErrEmptyModel")
	}
}

func TestAkimaModelSmoothness(t *testing.T) {
	dev := platform.NetlibBLASCore()
	m := NewAkima()
	for _, p := range measure(dev, core.LogSizes(16, 5000, 30)) {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	// The model should track the true time function closely in-domain.
	for _, x := range []float64{50, 300, 1234, 2500, 4000} {
		got, err := m.Time(x)
		if err != nil {
			t.Fatal(err)
		}
		want := dev.BaseTime(x)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("Time(%g) = %g, true %g (>5%% off)", x, got, want)
		}
	}
	// Deriv is consistent with finite differences of Time.
	for _, x := range []float64{100, 900, 3000} {
		d, err := m.Deriv(x)
		if err != nil {
			t.Fatal(err)
		}
		tp, _ := m.Time(x + 1e-4)
		tm2, _ := m.Time(x - 1e-4)
		fd := (tp - tm2) / 2e-4
		if math.Abs(d-fd) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("Deriv(%g) = %g, fd %g", x, d, fd)
		}
	}
}

func TestAkimaModelBelowFirstPointAndSinglePoint(t *testing.T) {
	m := NewAkima()
	if err := m.Update(core.Point{D: 100, Time: 1, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	tm, err := m.Time(50)
	if err != nil || tm != 0.5 {
		t.Errorf("Time(50) = %g, %v; want 0.5", tm, err)
	}
	d, err := m.Deriv(10)
	if err != nil || d != 0.01 {
		t.Errorf("Deriv = %g, %v; want 0.01", d, err)
	}
	if err := m.Update(core.Point{D: 200, Time: 2.2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	// At zero, time must be zero (origin line).
	if tm, _ := m.Time(0); tm != 0 {
		t.Errorf("Time(0) = %g, want 0", tm)
	}
	if _, err := m.Time(-3); err == nil {
		t.Error("negative size should error")
	}
}

func TestAkimaTimePositiveFloor(t *testing.T) {
	// Wild oscillating data could drive a spline negative; the model must
	// still report positive times.
	m := NewAkima()
	pts := []core.Point{
		{D: 10, Time: 5, Reps: 1},
		{D: 20, Time: 0.001, Reps: 1},
		{D: 30, Time: 5, Reps: 1},
		{D: 40, Time: 0.001, Reps: 1},
		{D: 50, Time: 5, Reps: 1},
	}
	for _, p := range pts {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	for x := 10.0; x <= 50; x += 0.5 {
		tm, err := m.Time(x)
		if err != nil {
			t.Fatal(err)
		}
		if tm <= 0 {
			t.Fatalf("Time(%g) = %g, must stay positive", x, tm)
		}
	}
}

func TestLinearModelFit(t *testing.T) {
	m := NewLinear()
	// Exact line t = 0.5 + 0.01 x.
	for _, d := range []int{100, 200, 400, 800} {
		if err := m.Update(core.Point{D: d, Time: 0.5 + 0.01*float64(d), Reps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	a, b, err := m.Coefficients()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.5) > 1e-9 || math.Abs(b-0.01) > 1e-12 {
		t.Errorf("fit = %g + %g x, want 0.5 + 0.01 x", a, b)
	}
	tm, _ := m.Time(1000)
	if math.Abs(tm-10.5) > 1e-9 {
		t.Errorf("Time(1000) = %g, want 10.5", tm)
	}
}

func TestLinearModelDegenerateFallback(t *testing.T) {
	m := NewLinear()
	if err := m.Update(core.Point{D: 100, Time: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	tm, err := m.Time(200)
	if err != nil || tm != 4 {
		t.Errorf("single-point linear should be origin line: Time(200) = %g, %v", tm, err)
	}
	// Decreasing times (negative slope) must fall back to a positive-slope
	// origin line rather than predicting negative time.
	m2 := NewLinear()
	m2.Update(core.Point{D: 100, Time: 5, Reps: 1})
	m2.Update(core.Point{D: 200, Time: 1, Reps: 1})
	tm, err = m2.Time(10000)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Errorf("degenerate linear fit predicted non-positive time %g", tm)
	}
	if _, _, err := NewLinear().Coefficients(); !errors.Is(err, core.ErrEmptyModel) {
		t.Error("empty coefficients should be ErrEmptyModel")
	}
}

func TestModelSpeedAgainstDevice(t *testing.T) {
	// All FPMs should reproduce the device speed within a few percent on
	// a dense noiseless sample.
	dev := platform.FastCore("f")
	sizes := core.LogSizes(32, 20000, 40)
	pts := measure(dev, sizes)
	for _, kind := range []string{KindPiecewise, KindAkima} {
		m, _ := New(kind)
		if err := core.UpdateAll(m, pts); err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{100, 1000, 5000, 15000} {
			s, err := core.ModelSpeed(m, x)
			if err != nil {
				t.Fatal(err)
			}
			want := platform.Speed(dev, x)
			if math.Abs(s-want) > 0.05*want {
				t.Errorf("%s: speed(%g) = %g, true %g", kind, x, s, want)
			}
		}
	}
}

func TestPointFileRoundTrip(t *testing.T) {
	pf := PointFile{
		Kernel: "gemm-b128",
		Device: "xeon0",
		Points: []core.Point{
			{D: 10, Time: 0.001, Reps: 5, CI: 1e-5},
			{D: 100, Time: 0.01, Reps: 7, CI: 2e-4},
		},
	}
	var buf bytes.Buffer
	if err := WritePoints(&buf, pf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel != pf.Kernel || got.Device != pf.Device {
		t.Errorf("meta = %q/%q", got.Kernel, got.Device)
	}
	if len(got.Points) != 2 || got.Points[1] != pf.Points[1] {
		t.Errorf("points = %+v", got.Points)
	}
}

func TestReadPointsErrors(t *testing.T) {
	cases := []string{
		"1 2 3",     // wrong field count
		"x 0.1 1 0", // bad size
		"1 y 1 0",   // bad time
		"1 0.1 z 0", // bad reps
		"1 0.1 1 w", // bad ci
		"0 0.1 1 0", // invalid point (d=0)
		"5 -1 1 0",  // invalid point (negative time)
	}
	for _, c := range cases {
		if _, err := ReadPoints(strings.NewReader(c)); err == nil {
			t.Errorf("line %q should fail to parse", c)
		}
	}
	// Blank lines and unknown comments are fine.
	ok := "# fupermod points v1\n# future: stuff\n\n5 0.5 1 0\n"
	pf, err := ReadPoints(strings.NewReader(ok))
	if err != nil || len(pf.Points) != 1 {
		t.Errorf("tolerant parse failed: %v, %+v", err, pf)
	}
}

// TestReadPointsRejectsNonFiniteTimes: a NaN or infinite time, in any
// spelling ParseFloat takes, fails the file at its line.
func TestReadPointsRejectsNonFiniteTimes(t *testing.T) {
	for _, tm := range []string{"NaN", "nan", "+Inf", "inf", "-Inf", "Infinity"} {
		text := "# fupermod points v1\n10 0.5 1 0\n20 " + tm + " 1 0\n30 1.5 1 0\n"
		_, err := ReadPoints(strings.NewReader(text))
		if err == nil || !strings.Contains(err.Error(), "line 3:") || !strings.Contains(err.Error(), "non-finite time") {
			t.Errorf("time %s: err = %v, want a non-finite time at line 3", tm, err)
		}
	}
}

func TestWritePointsRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	err := WritePoints(&buf, PointFile{Points: []core.Point{{D: -1, Time: 1}}})
	if err == nil {
		t.Error("invalid point should not serialise")
	}
}

func TestBuildFrom(t *testing.T) {
	pf := PointFile{Points: []core.Point{{D: 10, Time: 1, Reps: 1}, {D: 20, Time: 2, Reps: 1}}}
	m, err := pf.BuildFrom(KindAkima)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points()) != 2 {
		t.Error("BuildFrom lost points")
	}
	if _, err := pf.BuildFrom("bogus"); err == nil {
		t.Error("bogus kind should error")
	}
	bad := PointFile{Points: []core.Point{{D: 0, Time: 1}}}
	if _, err := bad.BuildFrom(KindConstant); err == nil {
		t.Error("invalid points should error")
	}
}

func TestModelsUnderNoise(t *testing.T) {
	// With noisy measurements the piecewise model must still produce a
	// strictly increasing, invertible time function.
	dev := platform.SlowCore("s")
	meter := platform.NewMeter(dev, platform.DefaultNoise, 99)
	rng := rand.New(rand.NewSource(5))
	m := NewPiecewise()
	for _, d := range core.LogSizes(16, 20000, 30) {
		tObs := meter.Measure(float64(d)) * (1 + 0.05*rng.Float64())
		if err := m.Update(core.Point{D: d, Time: tObs, Reps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := m.CoarsenedKnots()
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("noisy coarsening broke monotonicity at %d: %v", i, ts)
		}
	}
}

func TestHermiteModelMonotoneUnderNoise(t *testing.T) {
	dev := platform.NetlibBLASCore()
	meter := platform.NewMeter(dev, platform.DefaultNoise, 17)
	m := NewHermite()
	for _, d := range core.LogSizes(16, 5000, 30) {
		if err := m.Update(core.Point{D: d, Time: meter.Measure(float64(d)), Reps: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Time function strictly non-decreasing over a dense probe.
	prev := 0.0
	for x := 16.0; x <= 6000; x *= 1.05 {
		tm, err := m.Time(x)
		if err != nil {
			t.Fatal(err)
		}
		if tm < prev-1e-12 {
			t.Fatalf("hermite time not monotone at %g: %g < %g", x, tm, prev)
		}
		prev = tm
	}
	// Deriv agrees with finite differences inside the domain.
	for _, x := range []float64{100, 1000, 3000} {
		d, err := m.Deriv(x)
		if err != nil {
			t.Fatal(err)
		}
		tp, _ := m.Time(x + 1e-4)
		tm2, _ := m.Time(x - 1e-4)
		fd := (tp - tm2) / 2e-4
		if math.Abs(d-fd) > 1e-3*(1+math.Abs(fd)) {
			t.Errorf("Deriv(%g) = %g, fd %g", x, d, fd)
		}
	}
}

func TestHermiteModelAccuracy(t *testing.T) {
	dev := platform.FastCore("f")
	m := NewHermite()
	for _, p := range measure(dev, core.LogSizes(32, 20000, 40)) {
		if err := m.Update(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range []float64{100, 1000, 5000, 15000} {
		s, err := core.ModelSpeed(m, x)
		if err != nil {
			t.Fatal(err)
		}
		want := platform.Speed(dev, x)
		if math.Abs(s-want) > 0.05*want {
			t.Errorf("speed(%g) = %g, true %g", x, s, want)
		}
	}
}

func TestHermiteModelSinglePointAndErrors(t *testing.T) {
	m := NewHermite()
	if _, err := m.Time(5); !errors.Is(err, core.ErrEmptyModel) {
		t.Error("empty hermite should be ErrEmptyModel")
	}
	if err := m.Update(core.Point{D: 100, Time: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	tm, err := m.Time(50)
	if err != nil || tm != 1 {
		t.Errorf("single-point Time(50) = %g, %v; want 1", tm, err)
	}
	if _, err := m.Time(-1); err == nil {
		t.Error("negative size should error")
	}
	d, err := m.Deriv(10)
	if err != nil || d != 0.02 {
		t.Errorf("Deriv = %g, %v; want 0.02", d, err)
	}
}

func TestHermiteInNumericalPartitioner(t *testing.T) {
	devs := []platform.Device{platform.FastCore("a"), platform.SlowCore("b"), platform.DefaultGPU("g")}
	models := make([]core.Model, len(devs))
	for i, dev := range devs {
		m := NewHermite()
		for _, p := range measure(dev, core.LogSizes(16, 60000, 30)) {
			if err := m.Update(p); err != nil {
				t.Fatal(err)
			}
		}
		models[i] = m
	}
	// Balance 50000 units: behaves like the akima models (partition pkg
	// tests the algorithms; here just check equal predicted times).
	t0, _ := models[0].Time(10000)
	t1, _ := models[1].Time(2000)
	if t0 <= 0 || t1 <= 0 {
		t.Fatal("hermite predictions must be positive")
	}
}
