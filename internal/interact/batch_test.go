package interact

import (
	"math"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// TestPitchCoeffCacheShares checks that rounds at bit-identical pitch
// share one coefficient pair regardless of orientation.
func TestPitchCoeffCacheShares(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vic := geom.Pt(0, 0)
	p1 := mo.NewPairEval(vic, geom.Pt(10, 0))
	p2 := mo.NewPairEval(vic, geom.Pt(0, 10)) // same pitch, rotated 90°
	p3 := mo.NewPairEval(geom.Pt(10, 0), vic) // reversed round, same pitch
	p4 := mo.NewPairEval(vic, geom.Pt(12, 0)) // different pitch
	if &p1.a[0] != &p2.a[0] || &p1.b[0] != &p3.b[0] {
		t.Error("equal-pitch rounds must share cached coefficient slices")
	}
	if &p1.a[0] == &p4.a[0] {
		t.Error("distinct pitches must not share coefficients")
	}
	entries, hits := mo.CoeffCacheStats()
	if entries != 2 || hits != 2 {
		t.Errorf("cache stats = (%d entries, %d hits), want (2, 2)", entries, hits)
	}
}

// TestCachedPairEvalMatchesDirect pins the cached evaluator against the
// general PairStress path outside the victim.
func TestCachedPairEvalMatchesDirect(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vic, agg := geom.Pt(-5, 0), geom.Pt(5, 0)
	pe := mo.NewPairEval(vic, agg)
	for _, p := range []geom.Point{geom.Pt(0, 4), geom.Pt(-9, 2), geom.Pt(3, -7), geom.Pt(-5, 3.1)} {
		got := pe.StressAt(p)
		want := mo.PairStress(p, vic, agg)
		for _, d := range []float64{got.XX - want.XX, got.YY - want.YY, got.XY - want.XY} {
			if math.Abs(d) > 1e-9 {
				t.Errorf("at %v: cached %v vs direct %v", p, got, want)
				break
			}
		}
	}
}

// TestPackRoundsMatchesPerRoundSum pins the aggregated per-harmonic
// evaluation (AccumulateTile) against summing PairEval.StressAt round
// by round, including the interior path.
func TestPackRoundsMatchesPerRoundSum(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vic := geom.Pt(0, 0)
	aggs := []geom.Point{geom.Pt(8, 0), geom.Pt(0, 10), geom.Pt(-7, 7), geom.Pt(12, -5)}
	evs := make([]PairEval, 0, len(aggs))
	for _, a := range aggs {
		evs = append(evs, mo.NewPairEval(vic, a))
	}
	vr := PackRounds(evs)
	if vr == nil || vr.NumRounds() != len(aggs) {
		t.Fatalf("PackRounds kept %v rounds", vr)
	}
	if vr.Vic() != vic {
		t.Fatalf("Vic = %v", vr.Vic())
	}
	if &vr.evs[0] != &evs[0] {
		t.Error("an all-evaluable round set must be aliased, not copied")
	}
	pts := []geom.Point{
		geom.Pt(4, 3), geom.Pt(-6, 1), geom.Pt(0.5, -0.2) /* inside victim */, geom.Pt(20, 20),
		geom.Pt(3.0001, 0), geom.Pt(0, 0), // footprint boundary region and center
	}
	px, py := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		px[i], py[i] = p.X, p.Y
	}
	sxx, syy, sxy := make([]float64, len(pts)), make([]float64, len(pts)), make([]float64, len(pts))
	vr.AccumulateTile(px, py, sxx, syy, sxy, 1e6) // cutoff beyond every point
	for i, p := range pts {
		var want tensor.Stress
		for k := range evs {
			want = want.Add(evs[k].StressAt(p))
		}
		got := tensor.Stress{XX: sxx[i], YY: syy[i], XY: sxy[i]}
		for _, d := range []float64{got.XX - want.XX, got.YY - want.YY, got.XY - want.XY} {
			if math.Abs(d) > 1e-9 {
				t.Errorf("at %v: packed %v vs per-round %v", p, got, want)
				break
			}
		}
	}
}

// TestPackRoundsEmpty covers the degenerate inputs.
func TestPackRoundsEmpty(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	if vr := PackRounds(nil); vr != nil {
		t.Error("PackRounds(nil) must be nil")
	}
	deg := mo.NewPairEval(geom.Pt(0, 0), geom.Pt(0, 0)) // zero pitch
	if vr := PackRounds([]PairEval{deg}); vr != nil {
		t.Error("all-degenerate round set must pack to nil")
	}
	mixed := []PairEval{deg, mo.NewPairEval(geom.Pt(0, 0), geom.Pt(10, 0))}
	vr := PackRounds(mixed)
	if vr == nil || vr.NumRounds() != 1 || &vr.evs[0] == &mixed[1] {
		t.Error("degenerate rounds must be dropped from a private copy")
	}
}
