// Package field provides simulation-point grids and stress-field
// storage: the regular sampling lattices the paper's "simulation
// points" live on, line scans for figure-style comparisons, and CSV
// export.
package field

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"tsvstress/internal/floats"
	"tsvstress/internal/geom"
	"tsvstress/internal/spatial"
	"tsvstress/internal/tensor"
)

// Grid is a regular lattice of simulation points over a rectangle.
type Grid struct {
	Region geom.Rect
	NX, NY int
	pts    []geom.Point
}

// NewGrid builds a lattice with the given point spacing. Points are
// placed at cell centers so none sits exactly on the region boundary.
func NewGrid(region geom.Rect, spacing float64) (*Grid, error) {
	if !region.Valid() || region.Area() <= 0 {
		return nil, fmt.Errorf("field: invalid region %+v", region)
	}
	if !floats.IsFinite(spacing) || spacing <= 0 {
		return nil, fmt.Errorf("field: spacing %g must be positive and finite", spacing)
	}
	nx := int(region.W() / spacing)
	ny := int(region.H() / spacing)
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := &Grid{Region: region, NX: nx, NY: ny}
	dx := region.W() / float64(nx)
	dy := region.H() / float64(ny)
	g.pts = make([]geom.Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		y := region.Min.Y + (float64(j)+0.5)*dy
		for i := 0; i < nx; i++ {
			g.pts = append(g.pts, geom.Pt(region.Min.X+(float64(i)+0.5)*dx, y))
		}
	}
	return g, nil
}

// Points returns the lattice points in row-major order. The slice is
// shared; callers must not mutate it.
func (g *Grid) Points() []geom.Point { return g.pts }

// Len returns the number of points.
func (g *Grid) Len() int { return len(g.pts) }

// At returns point (i, j).
func (g *Grid) At(i, j int) geom.Point { return g.pts[j*g.NX+i] }

// Line returns n evenly spaced points from a to b inclusive.
func Line(a, b geom.Point, n int) []geom.Point {
	if n < 2 {
		return []geom.Point{a}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		t := float64(i) / float64(n-1)
		pts[i] = geom.Pt(a.X+(b.X-a.X)*t, a.Y+(b.Y-a.Y)*t)
	}
	return pts
}

// Mask selects a subset of grid points; Masked applies it.
type Mask func(p geom.Point) bool

// Masked returns the points for which every mask returns true.
func Masked(pts []geom.Point, masks ...Mask) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		keep := true
		for _, m := range masks {
			if !m(p) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// OutsideTSVs returns a mask that rejects points inside any TSV
// footprint (distance < rPrime from a center) — simulation points are
// device-layer silicon locations (DESIGN.md §2). The mask indexes the
// centers of pl when built; later edits to pl are not seen.
func OutsideTSVs(pl *geom.Placement, rPrime float64) Mask {
	nearest := nearestTSVWithin(pl, rPrime)
	return func(p geom.Point) bool { return nearest(p) >= rPrime }
}

// WithinAnyTSV returns a mask that keeps only points within radius of
// some TSV center — the paper's "critical region". Like OutsideTSVs it
// indexes the centers of pl when built.
func WithinAnyTSV(pl *geom.Placement, radius float64) Mask {
	nearest := nearestTSVWithin(pl, radius)
	return func(p geom.Point) bool { return nearest(p) <= radius }
}

// nearestTSVWithin returns a function giving the distance from p to its
// nearest TSV center, exactly as Placement.NearestTSV computes it, when
// that distance is at most radius, and +Inf otherwise. Both masks
// compare the result against radius, so they decide every point as a
// full NearestTSV scan would. A spatial index queried at a slightly
// padded radius replaces the scan; the pad only admits candidates
// whose squared-distance test could disagree with the exact Hypot by
// round-off.
func nearestTSVWithin(pl *geom.Placement, radius float64) func(p geom.Point) float64 {
	scan := func(p geom.Point) float64 {
		_, d := pl.NearestTSV(p)
		return d
	}
	n := len(pl.TSVs)
	if n == 0 || !(radius > 0) {
		return scan
	}
	pad := radius * (1 + 1e-9)
	// Cells no smaller than the query radius, and few enough that the
	// bucket count stays within about n however sparse the placement.
	b := pl.Bounds(0)
	cell := math.Max(pad, math.Max(b.W(), b.H())/math.Sqrt(float64(n)))
	if !floats.IsFinite(cell) {
		return scan // infinite radius, or non-finite centers
	}
	ix := spatial.NewIndex(pl.Centers(), cell)
	return func(p geom.Point) float64 {
		best := math.Inf(1)
		ix.Near(p, pad, func(i int, _ float64) {
			if d := ix.At(i).Dist(p); d < best {
				best = d
			}
		})
		return best
	}
}

// WriteCSV writes "x,y,<columns...>" rows for one or more stress fields
// sampled at pts; columns lists the tensor components to emit (see
// tensor.Stress.Component) prefixed per field name.
func WriteCSV(w io.Writer, pts []geom.Point, fields map[string][]tensor.Stress, columns []string) error {
	// Deterministic field order: sort names.
	names := make([]string, 0, len(fields))
	for name, vals := range fields {
		if len(vals) != len(pts) {
			return fmt.Errorf("field: %q has %d values for %d points", name, len(vals), len(pts))
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// Buffer the writer and assemble each row with strconv appends: the
	// per-value Fprintf calls this replaces dominated export time for
	// large grids.
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("x,y"); err != nil {
		return err
	}
	for _, name := range names {
		for _, c := range columns {
			if _, err := fmt.Fprintf(bw, ",%s_%s", name, c); err != nil {
				return err
			}
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	row := make([]byte, 0, 16*(2+len(names)*len(columns)))
	for i, p := range pts {
		row = row[:0]
		row = strconv.AppendFloat(row, p.X, 'g', 6, 64)
		row = append(row, ',')
		row = strconv.AppendFloat(row, p.Y, 'g', 6, 64)
		for _, name := range names {
			s := fields[name][i]
			for _, c := range columns {
				v, err := s.Component(c)
				if err != nil {
					return err
				}
				row = append(row, ',')
				row = strconv.AppendFloat(row, v, 'g', 6, 64)
			}
		}
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
