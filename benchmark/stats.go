package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (+Inf entries,
// the failed jobs, sort last). It fails when fewer than minBeyond
// samples lie above it.
func percentile(xs []float64, p float64) (float64, error) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if beyond := len(sorted) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples above it, have %d of %d",
			100*p, minBeyond, beyond, len(sorted))
	}
	return sorted[rank-1], nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default exclusive method); the
// middle one is the median. xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
