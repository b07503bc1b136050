package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles op_ms_tail may report, in tenths of
// a percent, highest first. The tail is the highest of them that still
// leaves at least minBeyond samples above it, so it never rests on a
// handful of ops.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the number of samples a reported tail percentile must
// leave above it.
const minBeyond = 10

// nearestRank returns the 1-based rank of the percentile given in
// tenths of a percent (0 < permille <= 1000) among n >= 1 sorted
// samples: the smallest rank whose share of the samples reaches it.
// Integer arithmetic keeps ranks like p99.9 of 10000 exact.
func nearestRank(permille, n int) int {
	return max(1, (permille*n+999)/1000)
}

// tail picks op_ms_tail from the samples: the highest percentile of
// tailLadder with at least minBeyond samples beyond its nearest rank.
// It returns the percentile, its value, and the number of samples
// beyond it. ok is false when even the median leaves fewer than
// minBeyond samples beyond it, i.e. the run held too few ops.
func tail(samples []float64) (pct, value float64, beyond int, ok bool) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	for _, pm := range tailLadder {
		r := nearestRank(pm, n)
		if n-r >= minBeyond {
			return float64(pm) / 10, sorted[r-1], n - r, true
		}
	}
	return 0, 0, 0, false
}

// median returns the median of the samples (the mean of the middle
// two for an even count), or NaN for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// perUnit normalizes a total (nanoseconds, bytes) by a unit count
// (packets, slots, entries). A zero count means the layer saw no work,
// which is a harness bug for every layer this benchmark measures.
func perUnit(total float64, units int64) (float64, error) {
	if units <= 0 {
		return 0, fmt.Errorf("normalizing %g by %d units", total, units)
	}
	return total / float64(units), nil
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
