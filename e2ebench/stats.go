package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and the percentile says more about the few than the tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1)) and
// refuses one with fewer than minBeyond samples strictly after its rank.
// +Inf samples (failed requests) sort last.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the middle two for even
// lengths); it reports 0 for no samples. Layer spans and repeated set-ups
// use it: their sample count is printed beside them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
