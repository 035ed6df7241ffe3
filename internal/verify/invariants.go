package verify

import (
	"fmt"
	"math"
	"sort"

	"fupermod/internal/core"
)

// CheckDist asserts the structural contract every partitioner promises:
// a non-nil distribution with exactly one part per model, every part
// non-negative, and Σ dᵢ = D *exactly*. The returned slice is empty when
// the contract holds.
func CheckDist(algo string, models []core.Model, D int, dist *core.Dist) []Violation {
	var vs []Violation
	if dist == nil {
		return []Violation{{Check: "nil-dist", Algo: algo,
			Detail: fmt.Sprintf("nil distribution for D=%d over %d models", D, len(models))}}
	}
	if dist.D != D {
		vs = append(vs, Violation{Check: "total", Algo: algo,
			Detail: fmt.Sprintf("dist.D = %d, want %d", dist.D, D)})
	}
	if len(dist.Parts) != len(models) {
		vs = append(vs, Violation{Check: "arity", Algo: algo,
			Detail: fmt.Sprintf("%d parts for %d models", len(dist.Parts), len(models))})
		return vs
	}
	sum := 0
	for i, p := range dist.Parts {
		if p.D < 0 {
			vs = append(vs, Violation{Check: "negative", Algo: algo,
				Detail: fmt.Sprintf("part %d is negative (%d)", i, p.D)})
		}
		if p.Time < 0 || math.IsNaN(p.Time) || math.IsInf(p.Time, 0) {
			vs = append(vs, Violation{Check: "time", Algo: algo,
				Detail: fmt.Sprintf("part %d has invalid predicted time %g", i, p.Time)})
		}
		sum += p.D
	}
	if sum != D {
		vs = append(vs, Violation{Check: "sum", Algo: algo,
			Detail: fmt.Sprintf("parts sum to %d, want exactly %d", sum, D)})
	}
	return vs
}

// Makespan evaluates the predicted makespan of the given part sizes under
// the models: max over loaded parts of Timeᵢ(dᵢ). Zero parts contribute
// nothing.
func Makespan(models []core.Model, sizes []int) (float64, error) {
	if len(sizes) != len(models) {
		return 0, fmt.Errorf("verify: %d sizes for %d models", len(sizes), len(models))
	}
	m := 0.0
	for i, d := range sizes {
		if d == 0 {
			continue
		}
		t, err := models[i].Time(float64(d))
		if err != nil {
			return 0, fmt.Errorf("verify: model %d at d=%d: %w", i, d, err)
		}
		if t > m {
			m = t
		}
	}
	return m, nil
}

// maxOracleCells bounds the DP table of Oracle: n·(D+1) cells must stay
// under it. At the bound the table holds ~160 MB of choices — far beyond
// any realistic verification size (D = 100,000 over n = 64 processes is
// 6.4M cells).
const maxOracleCells = 20_000_000

// maxOracleScanOps bounds the O(n·D²) fallback of Oracle on non-monotone
// time functions, where the binary-searched inner minimisation is invalid
// and every split must be scanned.
const maxOracleScanOps = 200_000_000

// oracleTimes precomputes times[i][d] = Timeᵢ(d) for d in [0, D], with
// times[i][0] = 0 (an unloaded process contributes nothing to the
// makespan, matching Makespan).
func oracleTimes(models []core.Model, D int) ([][]float64, error) {
	times := make([][]float64, len(models))
	for i, m := range models {
		times[i] = make([]float64, D+1)
		for d := 1; d <= D; d++ {
			t, terr := m.Time(float64(d))
			if terr != nil {
				return nil, fmt.Errorf("verify: oracle: model %d at d=%d: %w", i, d, terr)
			}
			times[i][d] = t
		}
	}
	return times, nil
}

// Oracle finds a makespan-optimal integer distribution of D units over
// the models by dynamic programming over per-process prefix makespans:
//
//	f₀(d)   = t₀(d)
//	fᵢ(d)   = min over x ∈ [0, d] of max(fᵢ₋₁(d−x), tᵢ(x))
//
// and the optimum is f_{n−1}(D). On monotone (non-decreasing) time
// functions every fᵢ is non-decreasing in d, so the inner minimisation is
// the crossing point of an increasing and a decreasing sequence and is
// found by binary search — O(n·D·log D) overall, which reaches realistic
// problem sizes (D ≥ 10,000, n ≥ 16) that an exhaustive enumeration
// cannot. Non-monotone time functions fall back to scanning every split,
// O(n·D²), exact for any shape but gated by an operation bound. The table
// of n·(D+1) cells is bounded too.
//
// The returned distribution is one optimal choice; when several
// distributions achieve the optimal makespan, another exact search may
// legitimately pick a different one while agreeing on the makespan.
func Oracle(models []core.Model, D int) (best []int, makespan float64, err error) {
	n := len(models)
	if n == 0 {
		return nil, 0, fmt.Errorf("verify: oracle needs models")
	}
	if D < 0 {
		return nil, 0, fmt.Errorf("verify: oracle needs D >= 0, got %d", D)
	}
	if cells := int64(n) * int64(D+1); cells > maxOracleCells {
		return nil, 0, fmt.Errorf("verify: oracle table too large (%d cells for D=%d, n=%d)", cells, D, n)
	}
	times, err := oracleTimes(models, D)
	if err != nil {
		return nil, 0, err
	}
	monotone := true
	for _, row := range times {
		for d := 1; d <= D; d++ {
			if row[d] < row[d-1] {
				monotone = false
				break
			}
		}
		if !monotone {
			break
		}
	}
	if !monotone {
		if ops := int64(n) * int64(D+1) * int64(D+1); ops > maxOracleScanOps {
			return nil, 0, fmt.Errorf("verify: oracle scan too large on non-monotone models (%d ops for D=%d, n=%d)", ops, D, n)
		}
	}
	// choice[i][d] is the x that attains fᵢ(d), for backtracking.
	choice := make([][]int32, n)
	for i := range choice {
		choice[i] = make([]int32, D+1)
	}
	prev := make([]float64, D+1)
	copy(prev, times[0])
	for d := 0; d <= D; d++ {
		choice[0][d] = int32(d)
	}
	cur := make([]float64, D+1)
	for i := 1; i < n; i++ {
		row := times[i]
		for d := 0; d <= D; d++ {
			var bestX int
			if monotone {
				// Smallest x where the increasing row[x] overtakes the
				// decreasing prev[d−x]; the optimum is there or one left.
				x := sort.Search(d+1, func(x int) bool { return row[x] >= prev[d-x] })
				bestX = x
				if x > d {
					bestX = d
				}
				if x > 0 {
					if alt := x - 1; math.Max(prev[d-alt], row[alt]) < math.Max(prev[d-bestX], row[bestX]) {
						bestX = alt
					}
				}
			} else {
				w := math.Inf(1)
				for x := 0; x <= d; x++ {
					if c := math.Max(prev[d-x], row[x]); c < w {
						w = c
						bestX = x
					}
				}
			}
			cur[d] = math.Max(prev[d-bestX], row[bestX])
			choice[i][d] = int32(bestX)
		}
		prev, cur = cur, prev
	}
	best = make([]int, n)
	d := D
	for i := n - 1; i >= 0; i-- {
		x := int(choice[i][d])
		best[i] = x
		d -= x
	}
	return best, prev[D], nil
}

// CheckOptimal compares a partitioner's distribution against the DP
// oracle: the distribution's predicted makespan must not exceed the
// optimum by more than relTol (relative) — the slack covers the
// integer-rounding step of the fast algorithms. The structural contract
// is checked first; the oracle only runs if it holds.
func CheckOptimal(algo string, models []core.Model, D int, dist *core.Dist, relTol float64) ([]Violation, error) {
	if vs := CheckDist(algo, models, D, dist); len(vs) > 0 {
		return vs, nil
	}
	_, opt, err := Oracle(models, D)
	if err != nil {
		return nil, err
	}
	got, err := Makespan(models, dist.Sizes())
	if err != nil {
		return nil, err
	}
	if got > opt*(1+relTol)+1e-15 {
		return []Violation{{Check: "oracle", Algo: algo,
			Detail: fmt.Sprintf("D=%d: predicted makespan %.6g exceeds brute-force optimum %.6g by %.2f%% (tol %.2f%%), sizes %v",
				D, got, opt, 100*(got/opt-1), 100*relTol, dist.Sizes())}}, nil
	}
	return nil, nil
}
