package interact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// TestInteriorMatchesPairStress pins the aggregated interior evaluator
// against summing the definitional Model.PairStress over the victim's
// rounds, for both liners, several series truncations and 1–20 rounds,
// at points in the body, on Γ2, just inside Γ1 and at the exact center.
func TestInteriorMatchesPairStress(t *testing.T) {
	for _, liner := range []material.Material{material.BCB, material.SiO2} {
		for _, mmax := range []int{2, 5, 10, 13} {
			t.Run(fmt.Sprintf("%s/mmax%d", liner.Name, mmax), func(t *testing.T) {
				mo, err := New(material.Baseline(liner), mmax)
				if err != nil {
					t.Fatal(err)
				}
				checkInterior(t, mo, rand.New(rand.NewSource(int64(mmax))))
			})
		}
	}
}

func checkInterior(t *testing.T, mo *Model, rng *rand.Rand) {
	rp, rBody := mo.Struct.RPrime, mo.Struct.R
	worst := 0.0
	for trial := 0; trial < 20; trial++ {
		vic := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
		aggs := make([]geom.Point, 1+trial)
		evs := make([]PairEval, len(aggs))
		for k := range aggs {
			ang := rng.Float64() * 2 * math.Pi
			d := mo.MinPairPitch() + rng.Float64()*20
			aggs[k] = geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang))
			evs[k] = mo.NewPairEval(vic, aggs[k])
		}
		vr := PackRounds(evs)
		if vr == nil {
			t.Fatal("PackRounds returned nil for non-degenerate rounds")
		}
		radii := []float64{
			0,
			rng.Float64() * rBody,                   // body
			rBody * (1 + (rng.Float64()-0.5)*2e-12), // on Γ2
			rBody + rng.Float64()*(rp-rBody),        // liner
			rp * (1 - 1e-12),                        // just inside Γ1
			math.Nextafter(rp, 0),
		}
		for _, r := range radii {
			ang := rng.Float64() * 2 * math.Pi
			p := geom.Pt(vic.X+r*math.Cos(ang), vic.Y+r*math.Sin(ang))
			if r == 0 {
				p = vic
			}
			if math.Hypot(p.X-vic.X, p.Y-vic.Y) >= rp {
				continue // rounding pushed the point onto Γ1
			}
			var want tensor.Stress
			for _, agg := range aggs {
				want = want.Add(mo.PairStress(p, vic, agg))
			}
			got := vr.interiorAt(p.X, p.Y)
			for _, d := range []float64{got.XX - want.XX, got.YY - want.YY, got.XY - want.XY} {
				if !(math.Abs(d) <= 1e-9) {
					t.Fatalf("r=%.17g rounds=%d: aggregated %v vs Σ PairStress %v", r, len(aggs), got, want)
				}
				worst = math.Max(worst, math.Abs(d))
			}
		}
	}
	t.Logf("worst interior deviation %.3g MPa", worst)
}
