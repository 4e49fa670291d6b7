package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q·n samples at or below it. xs need not
// be sorted and is not modified. It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// relIQR is the distance between the first and third quartile of xs as a
// share of its median, the spread measure BENCHMARK.json bounds refer to.
// It is 0 for fewer than two samples.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / math.Abs(m)
}

// blockSpread splits samples, kept in the order they were taken, into
// nBlocks consecutive blocks, applies stat to each block and returns the
// relative IQR of the block values: the within-run spread of stat.
func blockSpread(samples []float64, nBlocks int, stat func([]float64) float64) float64 {
	if nBlocks < 2 || len(samples) < 2*nBlocks {
		return 0
	}
	vals := make([]float64, nBlocks)
	per := len(samples) / nBlocks
	for b := range vals {
		vals[b] = stat(samples[b*per : (b+1)*per])
	}
	return relIQR(vals)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
