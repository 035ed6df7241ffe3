package stats

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// TCDF returns the cumulative distribution function of the Student-t
// distribution with df degrees of freedom evaluated at t. It is expressed
// through the regularized incomplete beta function:
//
//	P(T ≤ t) = 1 − I_x(df/2, 1/2)/2 for t ≥ 0, x = df/(df+t²),
//
// and by symmetry for t < 0.
func TCDF(t float64, df int) (float64, error) {
	if df < 1 {
		return 0, errors.New("stats: t distribution needs df >= 1")
	}
	nu := float64(df)
	x := nu / (nu + t*t)
	ib, err := RegIncBeta(nu/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// TQuantile returns the p-quantile (inverse CDF) of the Student-t
// distribution with df degrees of freedom, for p in (0, 1). The quantile is
// located by monotone bisection on TCDF, starting from a normal-based
// bracket; 1e-12 absolute accuracy is far below anything the benchmark
// layer can resolve.
//
// The benchmark loop asks for the same few (p, df) pairs on every
// repetition, so each pair is bisected once and then served from a
// process-wide memo; the values are bit-identical to a fresh bisection.
func TQuantile(p float64, df int) (float64, error) {
	if df < 1 {
		return 0, errors.New("stats: t distribution needs df >= 1")
	}
	if !(p > 0 && p < 1) {
		return 0, errors.New("stats: quantile level must be in (0, 1)")
	}
	return tQuantileMemo.quantile(p, df)
}

// tQuantile is TQuantile's bisection, for a valid (p, df).
func tQuantile(p float64, df int) (float64, error) {
	if p == 0.5 {
		return 0, nil
	}
	// Symmetric: solve for the upper tail, then flip.
	if p < 0.5 {
		q, err := tQuantile(1-p, df)
		return -q, err
	}
	// Bracket: t=0 gives CDF 1/2 < p. Grow the upper bound until it
	// encloses p; heavy tails for df=1 may need a large bound.
	lo, hi := 0.0, 2.0
	for i := 0; i < 64; i++ {
		c, err := TCDF(hi, df)
		if err != nil {
			return 0, err
		}
		if c >= p {
			break
		}
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c, err := TCDF(mid, df)
		if err != nil {
			return 0, err
		}
		if c < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// quantileMemoCap bounds a quantileMemo: it stores at most this many
// pairs, and a row holds df 1 … quantileMemoCap. A precision policy asks
// for one level at df = MinReps−1 … MaxReps−1, so a process sees a few
// dozen pairs; the cap leaves room for many policies.
const quantileMemoCap = 1024

// quantileMemoLevels bounds a quantileMemo's rows, one per level, so a
// full memo holds at most 16 rows of 1,024 quantiles: 128 KB.
const quantileMemoLevels = 16

// tQuantileMemo is the process-wide memo behind TQuantile. It is package
// state callers cannot observe: it holds only values tQuantile computes
// deterministically from its arguments, so a hit returns exactly the bits
// a fresh bisection would.
var tQuantileMemo quantileMemo

// quantileMemo caches tQuantile per (p, df) in a table of one row per
// level, indexed by df. It is safe for concurrent use; a hit takes no
// lock, allocates nothing and hashes nothing. It stores at most
// quantileMemoCap pairs in at most quantileMemoLevels rows; a pair it does
// not hold is bisected on every call. Comparing levels with == is sound
// because valid levels exclude NaN and ±0, the only float64 values whose
// equality disagrees with their bits.
type quantileMemo struct {
	rows atomic.Pointer[[]quantileRow] // nil until the first store
	mu   sync.Mutex                    // serialises stores, so n never passes the cap
	n    int                           // stored pairs
}

// quantileRow is one level's quantiles: q[df-1] is tQuantile(p, df), or
// NaN where no pair is stored (a bisection never returns NaN). A published
// row is never written again; a store publishes a grown copy.
type quantileRow struct {
	p float64
	q []float64
}

// quantile returns tQuantile(p, df) for a valid pair. A miss bisects the
// pair and stores it while the memo has room; concurrent misses on one
// pair may each bisect it, and the first store wins with the same bits.
// Errors are not stored.
func (c *quantileMemo) quantile(p float64, df int) (float64, error) {
	if rows := c.rows.Load(); rows != nil {
		for _, r := range *rows {
			if r.p == p {
				if df <= len(r.q) && !math.IsNaN(r.q[df-1]) {
					return r.q[df-1], nil
				}
				break
			}
		}
	}
	q, err := tQuantile(p, df)
	if err != nil {
		return 0, err
	}
	if df <= quantileMemoCap {
		c.store(p, df, q)
	}
	return q, nil
}

// store publishes a table holding q at (p, df), unless the memo is full
// or already holds the pair.
func (c *quantileMemo) store(p float64, df int, q float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= quantileMemoCap {
		return
	}
	var old []quantileRow
	if rows := c.rows.Load(); rows != nil {
		old = *rows
	}
	i := 0
	for i < len(old) && old[i].p != p {
		i++
	}
	if i == len(old) && i >= quantileMemoLevels {
		return
	}
	var prev []float64
	if i < len(old) {
		prev = old[i].q
	}
	if df <= len(prev) && !math.IsNaN(prev[df-1]) {
		return // a concurrent miss stored it
	}
	row := make([]float64, max(len(prev), df))
	copy(row, prev)
	for j := len(prev); j < len(row); j++ {
		row[j] = math.NaN()
	}
	row[df-1] = q
	rows := make([]quantileRow, len(old), len(old)+1)
	copy(rows, old)
	if i < len(old) {
		rows[i].q = row
	} else {
		rows = append(rows, quantileRow{p: p, q: row})
	}
	c.rows.Store(&rows)
	c.n++
}
