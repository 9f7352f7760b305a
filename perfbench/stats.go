package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles the tail rule chooses from, highest
// last.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the highest candidate percentile with at least ten
// samples beyond it. With fewer than forty samples that is the median
// alone: a p75 over 39 samples would have nine beyond it, no tail.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples. The slack keeps float error in p/100 (99.9 has no exact binary
// form) from pushing an exact rank to the next sample.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of the samples, which
// it sorts in place. It returns 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank(p, len(samples))-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
