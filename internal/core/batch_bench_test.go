package core

import (
	"context"
	"testing"

	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// fullChipSetup builds the full-chip case: 1000 TSVs at the paper's
// 1e-2/µm² density with a ≥200k-point device-layer grid. Unmasked, the
// grid keeps the points inside TSV footprints, as tsvserve's grids do.
func fullChipSetup(b *testing.B, masked bool) (*Analyzer, []geom.Point) {
	b.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(1000, 1e-2, 2*st.RPrime+1, 2013)
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(st, pl, Options{})
	if err != nil {
		b.Fatal(err)
	}
	region := pl.Bounds(5)
	// Spacing chosen so the masked grid carries at least 200k points.
	spacing := 0.55
	g, err := field.NewGrid(region, spacing)
	if err != nil {
		b.Fatal(err)
	}
	if !masked {
		return a, g.Points()
	}
	// Simulation points are device-layer silicon locations outside the
	// TSV footprints (DESIGN.md §2), as cmd/tsvstress masks by default.
	pts := field.Masked(g.Points(), field.OutsideTSVs(pl, st.RPrime))
	if len(pts) < 200_000 {
		b.Fatalf("grid has %d points, want >= 200k", len(pts))
	}
	return a, pts
}

func benchMap(b *testing.B, mode Mode, masked bool) {
	a, pts := fullChipSetup(b, masked)
	dst := make([]tensor.Stress, len(pts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.MapInto(context.Background(), dst, pts, mode); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(pts))
	b.ReportMetric(nsPerPoint, "ns/point")
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFullChipMap tracks the full-chip sweep throughput of the
// tile-batched engine in LS and Full modes. full-batched-unmasked adds
// the points inside TSV footprints, so it also times the Stage II
// interior path.
func BenchmarkFullChipMap(b *testing.B) {
	b.Run("ls-batched", func(b *testing.B) { benchMap(b, ModeLS, true) })
	b.Run("full-batched", func(b *testing.B) { benchMap(b, ModeFull, true) })
	b.Run("full-batched-unmasked", func(b *testing.B) { benchMap(b, ModeFull, false) })
}
