package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean())
	}
	// Sample variance of this classic data set is 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Errorf("empty summary should report zeros, got %v", s.String())
	}
	if _, err := s.CI(0.95); err == nil {
		t.Error("CI on empty summary should error")
	}
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-observation summary wrong: %v", s.String())
	}
	if s.Variance() != 0 {
		t.Errorf("variance with n=1 should be 0, got %g", s.Variance())
	}
	if _, err := s.CI(0.95); err == nil {
		t.Error("CI with n=1 should error")
	}
}

func TestSummaryMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var s Summary
	s.AddAll(xs)
	// Two-pass reference.
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs) - 1)
	if !almostEq(s.Mean(), mean, 1e-9) {
		t.Errorf("Mean = %g, want %g", s.Mean(), mean)
	}
	if !almostEq(s.Variance(), v, 1e-9) {
		t.Errorf("Variance = %g, want %g", s.Variance(), v)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform distribution).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.9, 0.9},
		// I_x(2,2) = x^2(3-2x).
		{2, 2, 0.5, 0.5},
		{2, 2, 0.25, 0.25 * 0.25 * (3 - 0.5)},
		// I_x(1/2,1/2) = (2/pi) asin(sqrt(x)).
		{0.5, 0.5, 0.5, 0.5},
		{0.5, 0.5, 0.2, 2 / math.Pi * math.Asin(math.Sqrt(0.2))},
		// Boundaries.
		{3, 4, 0, 0},
		{3, 4, 1, 1},
	}
	for _, c := range cases {
		got, err := RegIncBeta(c.a, c.b, c.x)
		if err != nil {
			t.Fatalf("RegIncBeta(%g,%g,%g): %v", c.a, c.b, c.x, err)
		}
		if !almostEq(got, c.want, 1e-10) {
			t.Errorf("RegIncBeta(%g,%g,%g) = %.12g, want %.12g", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestRegIncBetaDomainErrors(t *testing.T) {
	for _, c := range [][3]float64{{0, 1, 0.5}, {1, -1, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}} {
		if _, err := RegIncBeta(c[0], c[1], c[2]); err == nil {
			t.Errorf("RegIncBeta(%v) should error", c)
		}
	}
}

func TestTCDFSymmetryAndCenter(t *testing.T) {
	for _, df := range []int{1, 2, 5, 30, 200} {
		c, err := TCDF(0, df)
		if err != nil || !almostEq(c, 0.5, 1e-12) {
			t.Errorf("TCDF(0, %d) = %g, %v; want 0.5", df, c, err)
		}
		for _, x := range []float64{0.3, 1, 2.7, 10} {
			cp, _ := TCDF(x, df)
			cm, _ := TCDF(-x, df)
			if !almostEq(cp+cm, 1, 1e-12) {
				t.Errorf("df=%d x=%g: CDF(x)+CDF(-x) = %g, want 1", df, x, cp+cm)
			}
		}
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// df=1 is the Cauchy distribution: CDF(t) = 1/2 + atan(t)/pi.
	for _, x := range []float64{-3, -1, 0.5, 2, 7} {
		want := 0.5 + math.Atan(x)/math.Pi
		got, err := TCDF(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, want, 1e-10) {
			t.Errorf("TCDF(%g, 1) = %.12g, want %.12g", x, got, want)
		}
	}
	// df=2 has closed form CDF(t) = 1/2 + t / (2 sqrt(2 + t^2)).
	for _, x := range []float64{-2, 0.7, 4} {
		want := 0.5 + x/(2*math.Sqrt(2+x*x))
		got, _ := TCDF(x, 2)
		if !almostEq(got, want, 1e-10) {
			t.Errorf("TCDF(%g, 2) = %.12g, want %.12g", x, got, want)
		}
	}
}

func TestTQuantileTabulated(t *testing.T) {
	// Standard two-sided 95% critical values t_{0.975, df}.
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {5, 2.571}, {10, 2.228}, {30, 2.042}, {120, 1.980},
	}
	for _, c := range cases {
		got, err := TQuantile(0.975, c.df)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 5e-3) {
			t.Errorf("TQuantile(0.975, %d) = %.4f, want %.3f", c.df, got, c.want)
		}
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	f := func(pRaw uint16, dfRaw uint8) bool {
		p := 0.001 + 0.998*float64(pRaw)/65535
		df := 1 + int(dfRaw)%100
		q, err := TQuantile(p, df)
		if err != nil {
			return false
		}
		c, err := TCDF(q, df)
		if err != nil {
			return false
		}
		return almostEq(c, p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTQuantileErrors(t *testing.T) {
	if _, err := TQuantile(0, 5); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := TQuantile(1, 5); err == nil {
		t.Error("p=1 should error")
	}
	if _, err := TQuantile(math.NaN(), 5); err == nil {
		t.Error("p=NaN should error")
	}
	var s Summary
	s.AddAll([]float64{1, 2, 3})
	if _, err := s.CI(math.NaN()); err == nil {
		t.Error("CI at a NaN level should error")
	}
	if _, err := TQuantile(0.5, 0); err == nil {
		t.Error("df=0 should error")
	}
	if q, err := TQuantile(0.5, 7); err != nil || q != 0 {
		t.Errorf("median should be 0, got %g, %v", q, err)
	}
}

// memoLevels are the quantile levels the memo tests cover: the upper
// tails a confidence level asks for, and their complements (the negative
// branch).
func memoLevels() []float64 {
	upper := []float64{0.6, 0.9, 0.95, 0.975, 0.995, 0.9995}
	levels := append([]float64(nil), upper...)
	for _, p := range upper {
		levels = append(levels, 1-p)
	}
	return levels
}

// memoDFs are df 1–64 plus a few large df.
func memoDFs() []int {
	dfs := []int{200, 1000, 100000}
	for df := 1; df <= 64; df++ {
		dfs = append(dfs, df)
	}
	return dfs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// memoLen reports how many pairs a memo holds.
func memoLen(c *quantileMemo) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestTQuantileMemoBitIdentical pins the memo to the bisection bit for
// bit, on the call that fills an entry and on the call it serves.
func TestTQuantileMemoBitIdentical(t *testing.T) {
	var m quantileMemo
	for _, p := range memoLevels() {
		for _, df := range memoDFs() {
			want, err := tQuantile(p, df)
			if err != nil {
				t.Fatalf("tQuantile(%g, %d): %v", p, df, err)
			}
			for call := 1; call <= 2; call++ {
				got, err := m.quantile(p, df)
				if err != nil || !sameBits(got, want) {
					t.Fatalf("memo call %d at (%g, %d) = %v, %v; want %v", call, p, df, got, err, want)
				}
				got, err = TQuantile(p, df)
				if err != nil || !sameBits(got, want) {
					t.Fatalf("TQuantile call %d at (%g, %d) = %v, %v; want %v", call, p, df, got, err, want)
				}
			}
		}
	}
	// Every pair within a row is stored; df past quantileMemoCap is
	// bisected on every call.
	inRows := 0
	for _, df := range memoDFs() {
		if df <= quantileMemoCap {
			inRows++
		}
	}
	if got, want := memoLen(&m), len(memoLevels())*inRows; got != want {
		t.Errorf("memo holds %d pairs, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = TQuantile(0.975, 5) }); allocs != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", allocs)
	}
}

// TestTQuantileMemoConcurrent: goroutines racing for overlapping pairs,
// misses and hits alike, each get the serial answer, and every pair is
// stored once.
func TestTQuantileMemoConcurrent(t *testing.T) {
	type pair struct {
		p  float64
		df int
	}
	var pairs []pair
	var want []float64
	for _, p := range []float64{0.975, 0.025, 0.995} {
		for df := 1; df <= 24; df++ {
			q, err := tQuantile(p, df)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{p, df})
			want = append(want, q)
		}
	}
	var m quantileMemo
	const workers = 8
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Each worker walks the pairs twice from its own offset, so
			// workers overlap on misses and on hits.
			for i := 0; i < 2*len(pairs); i++ {
				j := (w*len(pairs)/workers + i) % len(pairs)
				got, err := m.quantile(pairs[j].p, pairs[j].df)
				if err != nil || !sameBits(got, want[j]) {
					errs <- fmt.Errorf("worker %d at %+v: got %v, %v; want %v", w, pairs[j], got, err, want[j])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := memoLen(&m); got != len(pairs) {
		t.Errorf("memo holds %d pairs, want %d", got, len(pairs))
	}
}

// TestTQuantileMemoInvalidInput: invalid input errors before the memo,
// whose size stays unchanged. A NaN level would otherwise add an entry on
// every call, since NaN never equals itself.
func TestTQuantileMemoInvalidInput(t *testing.T) {
	before := memoLen(&tQuantileMemo)
	for _, c := range []struct {
		p  float64
		df int
	}{
		{0, 5}, {1, 5}, {-0.1, 5}, {1.5, 5}, {math.NaN(), 5}, {math.NaN(), 5},
		{math.Inf(1), 5}, {math.Inf(-1), 5}, {math.Copysign(0, -1), 5},
		{0.975, 0}, {0.975, -3},
	} {
		if q, err := TQuantile(c.p, c.df); err == nil {
			t.Errorf("TQuantile(%g, %d) = %g, want an error", c.p, c.df, q)
		}
	}
	if after := memoLen(&tQuantileMemo); after != before {
		t.Errorf("invalid input grew the memo from %d to %d pairs", before, after)
	}
}

// TestTQuantileMemoCap: a full memo still answers pairs past the cap,
// bit-identically, without storing them.
func TestTQuantileMemoCap(t *testing.T) {
	var m quantileMemo
	for df := 1; df <= quantileMemoCap; df++ {
		if _, err := m.quantile(0.975, df); err != nil {
			t.Fatal(err)
		}
	}
	if got := memoLen(&m); got != quantileMemoCap {
		t.Fatalf("filled memo holds %d pairs, want %d", got, quantileMemoCap)
	}
	for _, c := range []struct {
		p  float64
		df int
	}{
		{0.975, quantileMemoCap + 1}, {0.975, 5 * quantileMemoCap}, {0.995, 3}, {0.05, 7},
		{0.975, 5}, // stored before the cap
	} {
		want, err := tQuantile(c.p, c.df)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 2; call++ {
			if got, err := m.quantile(c.p, c.df); err != nil || !sameBits(got, want) {
				t.Errorf("call %d at (%g, %d) = %v, %v; want %v", call, c.p, c.df, got, err, want)
			}
		}
	}
	if got := memoLen(&m); got != quantileMemoCap {
		t.Errorf("pairs past the cap grew the memo to %d, want %d", got, quantileMemoCap)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var small, large Summary
	for i := 0; i < 10; i++ {
		small.Add(5 + rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(5 + rng.NormFloat64())
	}
	ciS, err := small.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	ciL, err := large.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ciL >= ciS {
		t.Errorf("CI should shrink with more data: n=10 → %g, n=1000 → %g", ciS, ciL)
	}
}

func TestCICoverageProperty(t *testing.T) {
	// With normally distributed data the 95% CI should contain the true
	// mean roughly 95% of the time. Tolerate a wide band; this is a sanity
	// check, not a hypothesis test.
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	hits := 0
	for i := 0; i < trials; i++ {
		var s Summary
		for j := 0; j < 20; j++ {
			s.Add(3 + 2*rng.NormFloat64())
		}
		ci, err := s.CI(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Mean()-3) <= ci {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("95%% CI coverage = %.3f, expected within [0.90, 0.99]", frac)
	}
}

func TestRelCIZeroMean(t *testing.T) {
	var s Summary
	s.AddAll([]float64{-1, 1, -1, 1})
	rel, err := s.RelCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rel, 1) {
		t.Errorf("RelCI with zero mean = %g, want +Inf", rel)
	}
}

func TestMeanVarianceConvenience(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single value should be 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2, 1e-15) {
		t.Error("Mean([1 2 3]) wrong")
	}
}
