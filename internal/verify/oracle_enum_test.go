package verify

import (
	"fmt"
	"math"
	"testing"

	"fupermod/internal/core"
)

// maxOracleStates bounds the exhaustive enumeration; C(D+n−1, n−1) must
// stay under it. At the default suite sizes (D ≤ 24, n ≤ 4) the count is
// a few thousand.
const maxOracleStates = 5_000_000

// OracleEnum finds a makespan-optimal integer distribution of D units
// over the models by exhaustive enumeration of all compositions of D into
// len(models) non-negative parts, with branch-and-bound pruning on the
// running makespan. It is exponential by design and refuses inputs whose
// state count exceeds maxOracleStates; it is the independent cross-check
// of the DP Oracle on small instances.
func OracleEnum(models []core.Model, D int) (best []int, makespan float64, err error) {
	n := len(models)
	if n == 0 {
		return nil, 0, fmt.Errorf("verify: oracle needs models")
	}
	if D < 0 {
		return nil, 0, fmt.Errorf("verify: oracle needs D >= 0, got %d", D)
	}
	if states := compositions(D, n); states > maxOracleStates {
		return nil, 0, fmt.Errorf("verify: oracle space too large (%d states for D=%d, n=%d)", states, D, n)
	}
	times, err := oracleTimes(models, D)
	if err != nil {
		return nil, 0, err
	}
	best = make([]int, n)
	cur := make([]int, n)
	makespan = math.Inf(1)
	var walk func(i, left int, worst float64)
	walk = func(i, left int, worst float64) {
		if worst >= makespan {
			return // cannot improve on the incumbent
		}
		if i == n-1 {
			cur[i] = left
			w := worst
			if t := times[i][left]; t > w {
				w = t
			}
			if w < makespan {
				makespan = w
				copy(best, cur)
			}
			return
		}
		for d := 0; d <= left; d++ {
			cur[i] = d
			w := worst
			if t := times[i][d]; t > w {
				w = t
			}
			walk(i+1, left-d, w)
		}
	}
	walk(0, D, 0)
	return best, makespan, nil
}

// compositions counts C(D+n−1, n−1), saturating at maxOracleStates+1.
func compositions(D, n int) int {
	c := 1.0
	for i := 1; i < n; i++ {
		c = c * float64(D+i) / float64(i)
		if c > maxOracleStates {
			return maxOracleStates + 1
		}
	}
	return int(c)
}

// TestOracleErrors: Oracle refuses an empty model set and a negative D.
func TestOracleErrors(t *testing.T) {
	models := ExactModels(NewGen(1).Platform(2, MonotoneShapes()...))
	if _, _, err := Oracle(nil, 10); err == nil {
		t.Error("Oracle(nil models) should error")
	}
	if _, _, err := Oracle(models, -1); err == nil {
		t.Error("Oracle(D=-1) should error")
	}
}
