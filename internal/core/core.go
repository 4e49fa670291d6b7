// Package core implements the paper's primary contribution: the
// two-stage semi-analytical full-chip TSV-induced stress modeling
// framework (Algorithm 1).
//
// Stage I performs linear superposition of single-TSV contributions of
// TSVs within a cutoff distance of each simulation point (table
// look-up). Stage II adds the interactive-stress contribution of every
// nearby TSV pair: for a simulation point, a pair participates in one
// aggressor→victim round when the pair pitch is within PairPitchCutoff
// and the victim lies within PairDistCutoff of the point; both
// orderings of a pair are separate rounds, exactly as in Section 4 of
// the paper. Both stages are O(n) in the number of simulation points.
package core

//tsvlint:apiboundary

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/material"
	"tsvstress/internal/spatial"
	"tsvstress/internal/superpose"
	"tsvstress/internal/tensor"
)

// Options configures the analyzer. Zero values select the paper's
// defaults.
type Options struct {
	// LSCutoff is the Stage I nearby-TSV distance in µm (default 25).
	LSCutoff float64
	// PairPitchCutoff is the maximum pair pitch considered in Stage II
	// (default 25 µm).
	PairPitchCutoff float64
	// PairDistCutoff is the maximum victim-to-point distance considered
	// in Stage II (default 25 µm).
	PairDistCutoff float64
	// MMax is the interactive-series truncation (default 10).
	MMax int
	// Workers bounds the parallelism of Map calls (default NumCPU).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.LSCutoff <= 0 {
		o.LSCutoff = superpose.DefaultCutoff
	}
	if o.PairPitchCutoff <= 0 {
		o.PairPitchCutoff = 25
	}
	if o.PairDistCutoff <= 0 {
		o.PairDistCutoff = 25
	}
	if o.MMax <= 0 {
		o.MMax = interact.DefaultMMax
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// GatherCutoff returns the per-tile gather radius (µm) MapInto would
// partition with for the given mode: the largest cutoff among the
// stages the mode evaluates. It is the cutoff a caller must build its
// Tiling with to reproduce MapInto's partition.
func (o Options) GatherCutoff(mode Mode) float64 {
	o = o.withDefaults()
	cutoff := 0.0
	if mode == ModeLS || mode == ModeFull {
		cutoff = o.LSCutoff
	}
	if (mode == ModeFull || mode == ModeInteractive) && o.PairDistCutoff > cutoff {
		cutoff = o.PairDistCutoff
	}
	return cutoff
}

// Analyzer is the full-chip stress analyzer for one placement. It is
// immutable after New and safe for concurrent use.
type Analyzer struct {
	Struct    material.Structure
	Placement *geom.Placement
	LS        *superpose.LS
	Model     *interact.Model
	opt       Options

	idx *spatial.Index
	// pairEvals[j] holds one evaluator per aggressor→victim round with
	// victim j (aggressors within PairPitchCutoff of TSV j).
	pairEvals [][]interact.PairEval
	// victimRounds[j] is the structure-of-arrays packing of pairEvals[j]
	// used by the tile-batched engine (nil when TSV j has no rounds).
	victimRounds []*interact.VictimRounds
	numPairs     int

	// Stage I radial table lanes for the fused SoA kernel; see
	// batch.go.
	lsRR, lsTT []float64
	lsInvStep  float64

	// Scratch pools for the batched engine (see batch.go).
	mapPool  sync.Pool
	tilePool sync.Pool
}

// New builds the analyzer: it solves the single-TSV model, solves the
// per-harmonic interactive systems, precomputes the Stage I look-up
// table, the spatial index and the per-victim pair evaluators.
func New(st material.Structure, pl *geom.Placement, opt Options) (*Analyzer, error) {
	opt = opt.withDefaults()
	if err := pl.Validate(2 * st.RPrime); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ls, err := superpose.New(st, superpose.Options{Cutoff: opt.LSCutoff})
	if err != nil {
		return nil, err
	}
	model, err := interact.New(st, opt.MMax)
	if err != nil {
		return nil, err
	}
	rr, tt, step, _ := ls.Table() // table mode: the table always exists
	a := &Analyzer{
		Struct:    st,
		Placement: pl,
		LS:        ls,
		Model:     model,
		opt:       opt,
		idx:       spatial.NewIndex(pl.Centers(), maxF(opt.LSCutoff, opt.PairDistCutoff)),
		lsRR:      rr,
		lsTT:      tt,
		lsInvStep: 1 / step,
	}
	// Build per-victim pair rounds; rounds at equal pitch share one
	// coefficient pair via the model's pitch-keyed cache.
	a.pairEvals = make([][]interact.PairEval, pl.Len())
	a.victimRounds = make([]*interact.VictimRounds, pl.Len())
	for j, vic := range pl.TSVs {
		a.idx.Near(vic.Center, opt.PairPitchCutoff, func(i int, d float64) {
			if i == j || d <= 0 {
				return
			}
			a.pairEvals[j] = append(a.pairEvals[j], model.NewPairEval(vic.Center, pl.TSVs[i].Center))
			a.numPairs++
		})
		a.victimRounds[j] = interact.PackRounds(a.pairEvals[j])
	}
	return a, nil
}

// NumPairRounds returns the total number of aggressor→victim rounds.
func (a *Analyzer) NumPairRounds() int { return a.numPairs }

// Options returns the effective options (after defaulting).
func (a *Analyzer) Options() Options { return a.opt }

// StressLS returns the Stage I (linear superposition) stress at p in
// MPa — the baseline method of [9].
func (a *Analyzer) StressLS(p geom.Point) tensor.Stress {
	return a.LS.StressAt(p, a.idx)
}

// Interactive returns the Stage II correction at p in MPa: the
// superposed interactive-stress contributions of all nearby pair
// rounds.
func (a *Analyzer) Interactive(p geom.Point) tensor.Stress {
	var s tensor.Stress
	a.idx.Near(p, a.opt.PairDistCutoff, func(j int, _ float64) {
		evs := a.pairEvals[j]
		for k := range evs {
			s = s.Add(evs[k].StressAt(p))
		}
	})
	return s
}

// StressAt returns the proposed-framework stress at p in MPa: Stage I
// plus Stage II.
func (a *Analyzer) StressAt(p geom.Point) tensor.Stress {
	return a.StressLS(p).Add(a.Interactive(p))
}

// Mode selects which field a Map call evaluates.
type Mode int

const (
	// ModeLS evaluates Stage I only (the baseline).
	ModeLS Mode = iota
	// ModeFull evaluates Stage I + Stage II (the proposed framework).
	ModeFull
	// ModeInteractive evaluates Stage II only (diagnostics/ablation).
	ModeInteractive
)

// Map evaluates the selected field at every point in parallel through
// the tile-batched engine (see batch.go); use MapInto to stream into a
// reusable destination buffer (and to pass a cancellation context)
// instead.
func (a *Analyzer) Map(pts []geom.Point, mode Mode) []tensor.Stress {
	out := make([]tensor.Stress, len(pts))
	_ = a.MapInto(context.Background(), out, pts, mode) // length matches by construction
	return out
}

func errDstLen(dst, pts int) error {
	return fmt.Errorf("core: MapInto dst has %d slots for %d points", dst, pts)
}

func errNonFinitePoint(i int, p geom.Point) error {
	return fmt.Errorf("core: point %d (%g, %g) is not finite", i, p.X, p.Y)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
