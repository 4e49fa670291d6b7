package interact

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// packRandom builds a VictimRounds with nAgg random aggressors around a
// random victim center.
func packRandom(t *testing.T, mo *Model, rng *rand.Rand, nAgg int) *VictimRounds {
	t.Helper()
	vic := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
	evs := make([]PairEval, 0, nAgg)
	for len(evs) < nAgg {
		ang := rng.Float64() * 2 * math.Pi
		d := mo.MinPairPitch() + rng.Float64()*20
		agg := geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang))
		evs = append(evs, mo.NewPairEval(vic, agg))
	}
	vr := PackRounds(evs)
	if vr == nil {
		t.Fatal("PackRounds returned nil for non-degenerate rounds")
	}
	return vr
}

// TestAccumulateTileMatchesScalar pins the SoA complex-Horner lane
// kernel against the scalar per-round oracle, Σ PairEval.StressAt over
// the packed rounds, on randomized round sets and point mixes (far,
// near-cutoff, footprint-boundary, interior and center points), at the
// engine-wide 1e-9 MPa budget.
func TestAccumulateTileMatchesScalar(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rp := mo.Struct.RPrime
	const pd2 = 25 * 25
	worst := 0.0
	for trial := 0; trial < 20; trial++ {
		vr := packRandom(t, mo, rng, 1+rng.Intn(6))
		vic := vr.Vic()
		var px, py []float64
		for i := 0; i < 64; i++ {
			r := rng.Float64() * 30
			switch i % 4 {
			case 1:
				r = rng.Float64() * rp * 1.5 // interior and boundary band
			case 2:
				r = rp * (1 + (rng.Float64()-0.5)*1e-6) // footprint edge
			case 3:
				r = 24 + rng.Float64()*2 // cutoff edge
			}
			ang := rng.Float64() * 2 * math.Pi
			px = append(px, vic.X+r*math.Cos(ang))
			py = append(py, vic.Y+r*math.Sin(ang))
		}
		px = append(px, vic.X, vic.X+rp)
		py = append(py, vic.Y, vic.Y)
		n := len(px)
		sxx, syy, sxy := make([]float64, n), make([]float64, n), make([]float64, n)
		vr.AccumulateTile(px, py, sxx, syy, sxy, pd2)
		for i := 0; i < n; i++ {
			dx, dy := px[i]-vic.X, py[i]-vic.Y
			var want tensor.Stress
			if dx*dx+dy*dy <= pd2 {
				for k := range vr.evs {
					want = want.Add(vr.evs[k].StressAt(geom.Pt(px[i], py[i])))
				}
			}
			for _, d := range []float64{sxx[i] - want.XX, syy[i] - want.YY, sxy[i] - want.XY} {
				if math.Abs(d) > worst {
					worst = math.Abs(d)
				}
				if math.Abs(d) > 1e-9 {
					t.Fatalf("trial %d point %d (r=%g): SoA (%g,%g,%g) vs per-round %+v",
						trial, i, math.Hypot(dx, dy), sxx[i], syy[i], sxy[i], want)
				}
			}
		}
	}
	t.Logf("worst SoA-vs-per-round diff: %.3g MPa", worst)
}

// TestTruncationThresholds checks the adaptive-truncation metadata: the
// thresholds are finite, non-increasing in the start index, and end at
// zero so the start-index scan always terminates.
func TestTruncationThresholds(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	vr := packRandom(t, mo, rng, 4)
	if len(vr.trunc) != vr.nm {
		t.Fatalf("trunc has %d entries for %d harmonics", len(vr.trunc), vr.nm)
	}
	for k, d2 := range vr.trunc {
		if math.IsNaN(d2) || math.IsInf(d2, 0) || d2 < 0 {
			t.Fatalf("trunc[%d] = %g", k, d2)
		}
		if k > 0 && d2 > vr.trunc[k-1] {
			t.Errorf("trunc not non-increasing at %d: %g > %g", k, d2, vr.trunc[k-1])
		}
	}
	if last := vr.trunc[vr.nm-1]; last != 0 {
		t.Errorf("trunc[last] = %g, want 0", last)
	}
}

// TestAccumulateTileLaneMismatch pins the defensive length check.
func TestAccumulateTileLaneMismatch(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vr := PackRounds([]PairEval{mo.NewPairEval(geom.Pt(0, 0), geom.Pt(10, 0))})
	defer func() {
		if recover() == nil {
			t.Error("mismatched lane lengths must panic")
		}
	}()
	vr.AccumulateTile(make([]float64, 4), make([]float64, 3), make([]float64, 4), make([]float64, 4), make([]float64, 4), 625)
}
