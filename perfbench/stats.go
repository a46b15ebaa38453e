package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the first, second and third quartile of xs with the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the acceptance check exactly. One sample is
// its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, or 0 for no samples. xs is sorted
// in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// interpolating linearly inside the bucket where the cumulative count
// crosses q·N. bounds are the buckets' strictly increasing upper edges;
// counts has one more entry, the overflow bucket. The first bucket's lower
// edge is 0. A quantile in the overflow bucket returns the last finite
// bound, a floor rather than an estimate.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(n)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i >= len(bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// ratio returns a/b, or 0 when b is 0, for per-unit metrics of a layer
// that did no work on the workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
