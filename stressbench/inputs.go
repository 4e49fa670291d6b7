package main

import (
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// Table 6 case-3 scale: 1000 TSVs at 1e-2 TSVs/µm² with a BCB liner.
const (
	chipTSVs    = 1000
	chipDensity = 1e-2
	// gridPoints is the raw grid size both compute workloads sample the
	// chip at. About 26.6% of it lies inside TSV footprints at this
	// density: chip_map masks those points out, eco_session keeps them
	// (as tsvserve does), which is what puts eco_session on the
	// interior cold path of Stage II.
	gridPoints = 275_000
	// parityTol is the agreement, in MPa per tensor component, every
	// output check demands.
	parityTol = 1e-9
)

func chipStructure() material.Structure { return material.Baseline(material.BCB) }

// chipPlacement is the seeded Table 6 case-3 placement.
func chipPlacement(seed int64) (*geom.Placement, error) {
	st := chipStructure()
	return placegen.Random(chipTSVs, chipDensity, 2*st.RPrime+1, seed)
}

// gridSpacing returns the spacing that puts about gridPoints points on
// the placement's bounds with the 5 µm margin tsvserve uses.
func gridSpacing(pl *geom.Placement) float64 {
	return math.Sqrt(pl.Bounds(5).Area() / gridPoints)
}

// stressDiff is the largest component difference of two tensors in MPa.
func stressDiff(a, b tensor.Stress) float64 {
	return math.Max(math.Abs(a.XX-b.XX), math.Max(math.Abs(a.YY-b.YY), math.Abs(a.XY-b.XY)))
}
