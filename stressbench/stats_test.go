package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[9] != 6 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestPercentileTail(t *testing.T) {
	// 1000 samples 1..1000: p99 is the 990th, leaving ten beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", got)
	}
}

func TestRelIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// Nearest rank: q1 = 2, median = 4, q3 = 6.
	if got, want := relIQR(xs), 1.0; got != want {
		t.Errorf("relIQR = %g, want %g", got, want)
	}
	if relIQR([]float64{3}) != 0 {
		t.Error("relIQR of one sample should be 0")
	}
	flat := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	if got := blockSpread(flat, 5, median); got != 0 {
		t.Errorf("blockSpread of constant samples = %g, want 0", got)
	}
}
