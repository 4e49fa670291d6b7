package field

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

func TestNewGridValidation(t *testing.T) {
	r := geom.RectAround(geom.Pt(0, 0), 10, 10)
	if _, err := NewGrid(r, 0); err == nil {
		t.Error("zero spacing should fail")
	}
	if _, err := NewGrid(geom.Rect{}, 1); err == nil {
		t.Error("empty region should fail")
	}
}

func TestGridPoints(t *testing.T) {
	r := geom.RectAround(geom.Pt(0, 0), 10, 4)
	g, err := NewGrid(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 10 || g.NY != 4 || g.Len() != 40 {
		t.Fatalf("grid dims %dx%d len %d", g.NX, g.NY, g.Len())
	}
	// All points inside the region, at cell centers.
	for _, p := range g.Points() {
		if !r.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
	if got := g.At(0, 0); got != geom.Pt(-4.5, -1.5) {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := g.At(9, 3); got != geom.Pt(4.5, 1.5) {
		t.Errorf("At(9,3) = %v", got)
	}
}

func TestLine(t *testing.T) {
	pts := Line(geom.Pt(0, 0), geom.Pt(10, 0), 11)
	if len(pts) != 11 || pts[0] != geom.Pt(0, 0) || pts[10] != geom.Pt(10, 0) {
		t.Fatalf("Line = %v", pts)
	}
	if pts[5] != geom.Pt(5, 0) {
		t.Errorf("midpoint = %v", pts[5])
	}
	if got := Line(geom.Pt(1, 2), geom.Pt(9, 9), 1); len(got) != 1 {
		t.Error("n<2 should return the start point")
	}
}

func TestMasks(t *testing.T) {
	pl := geom.NewPlacement(geom.Pt(0, 0))
	outside := OutsideTSVs(pl, 3)
	critical := WithinAnyTSV(pl, 3.3)
	if outside(geom.Pt(1, 0)) {
		t.Error("point inside TSV should be rejected")
	}
	if !outside(geom.Pt(4, 0)) {
		t.Error("point outside TSV should pass")
	}
	if !critical(geom.Pt(3.2, 0)) || critical(geom.Pt(4, 0)) {
		t.Error("critical ring mask wrong")
	}
	pts := []geom.Point{{X: 1, Y: 0}, {X: 3.1, Y: 0}, {X: 5, Y: 0}}
	kept := Masked(pts, outside, critical)
	if len(kept) != 1 || kept[0] != (geom.Point{X: 3.1, Y: 0}) {
		t.Errorf("Masked = %v", kept)
	}
}

func TestWriteCSV(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 2}}
	fields := map[string][]tensor.Stress{
		"fem": {{XX: 1, YY: 2, XY: 3}, {XX: 4}},
		"ls":  {{XX: 10}, {XX: 40}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts, fields, []string{"xx", "vm"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "x,y,fem_xx,fem_vm,ls_xx,ls_vm" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,1,") {
		t.Errorf("row = %q", lines[1])
	}
	// Mismatched length errors.
	bad := map[string][]tensor.Stress{"x": {{}}}
	if err := WriteCSV(&buf, pts, bad, []string{"xx"}); err == nil {
		t.Error("length mismatch should fail")
	}
	// Unknown column errors.
	if err := WriteCSV(&buf, pts, fields, []string{"nope"}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestGridSpacingNotDivisible(t *testing.T) {
	g, err := NewGrid(geom.RectAround(geom.Pt(0, 0), 10, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 3 || g.NY != 3 {
		t.Errorf("grid %dx%d", g.NX, g.NY)
	}
	// Spacing adjusts so points stay centered.
	var sumX float64
	for _, p := range g.Points() {
		sumX += p.X
	}
	if math.Abs(sumX) > 1e-9 {
		t.Error("points not centered")
	}
}

// TestMasksMatchNearestScan pins the index-backed masks against the
// brute-force nearest-center scan they replace: random placements,
// points on and one ulp either side of the footprint and critical
// radii, a placement with a non-finite center (the scan fallback), and
// the empty placement, which keeps every point outside.
func TestMasksMatchNearestScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rp, crit = 2.5, 3.3
	check := func(pl *geom.Placement, pts []geom.Point) {
		t.Helper()
		outside, within := OutsideTSVs(pl, rp), WithinAnyTSV(pl, crit)
		for _, p := range pts {
			_, d := pl.NearestTSV(p)
			if got, want := outside(p), d >= rp; got != want {
				t.Fatalf("OutsideTSVs(%v) = %v, scan says %v (d=%.17g)", p, got, want, d)
			}
			if got, want := within(p), d <= crit; got != want {
				t.Fatalf("WithinAnyTSV(%v) = %v, scan says %v (d=%.17g)", p, got, want, d)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		span := 10 + rng.Float64()*200
		var centers []geom.Point
		for len(centers) < n {
			centers = append(centers, geom.Pt(rng.Float64()*span, rng.Float64()*span*rng.Float64()))
		}
		pl := geom.NewPlacement(centers...)
		var pts []geom.Point
		for i := 0; i < 400; i++ {
			pts = append(pts, geom.Pt(rng.Float64()*span*1.2-0.1*span, rng.Float64()*span*1.2-0.1*span))
		}
		for _, c := range centers {
			ang := rng.Float64() * 2 * math.Pi
			for _, r := range []float64{rp, crit} {
				for _, rr := range []float64{math.Nextafter(r, 0), r, math.Nextafter(r, 4)} {
					pts = append(pts, geom.Pt(c.X+rr, c.Y), geom.Pt(c.X, c.Y-rr),
						geom.Pt(c.X+rr*math.Cos(ang), c.Y+rr*math.Sin(ang)))
				}
			}
			pts = append(pts, c)
		}
		check(pl, pts)
	}
	nonFinite := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(math.NaN(), 1), geom.Pt(8, 0))
	check(nonFinite, []geom.Point{geom.Pt(1, 0), geom.Pt(4, 0), geom.Pt(8, 3)})
	empty := geom.NewPlacement()
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1e6, -3)}
	check(empty, pts)
	for _, p := range pts {
		if !OutsideTSVs(empty, rp)(p) {
			t.Errorf("empty placement must keep %v outside", p)
		}
	}
}
