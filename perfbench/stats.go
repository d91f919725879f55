package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer samples is noise, so it is not reported.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minBeyond samples must rank above
// it, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	// The epsilon keeps p*n that should be whole (0.9*100) from rounding
	// up a rank.
	idx := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted(xs)[idx], n-(idx+1) >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, mapping an empty base to 0 rather than NaN or Inf so a
// report never carries a non-finite number.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
