package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/tensor"
)

// chipMap is the Table 6 workload: warm full-chip MapInto sweeps over a
// masked silicon grid. One operation is an LS sweep followed by a Full
// sweep, the two maps Table 6 compares.
type chipMap struct {
	pl       *geom.Placement
	an       *core.Analyzer
	pts      []geom.Point
	ls, full []tensor.Stress
	rng      *rand.Rand // picks the points each check samples
}

// chipSweeps is chipMap's segment detail: per-operation sweep times.
type chipSweeps struct{ lsMs, fullMs []float64 }

// chipCheckPoints is how many points each operation's check samples per
// mode; the final check samples more.
const chipCheckPoints = 8

func (c *chipMap) setup(seed int64) (time.Duration, error) {
	pl, err := chipPlacement(seed)
	if err != nil {
		return 0, err
	}
	st := chipStructure()
	start := time.Now()
	an, err := core.New(st, pl, core.Options{Workers: pinnedWorkers()})
	if err != nil {
		return 0, err
	}
	g, err := field.NewGrid(pl.Bounds(5), gridSpacing(pl))
	if err != nil {
		return 0, err
	}
	pts := field.Masked(g.Points(), field.OutsideTSVs(pl, st.RPrime))
	took := time.Since(start)
	c.pl, c.an, c.pts = pl, an, pts
	c.ls, c.full = make([]tensor.Stress, len(pts)), make([]tensor.Stress, len(pts))
	c.rng = rand.New(rand.NewSource(seed ^ 0x636869706d6170))
	return took, nil
}

// sweep runs one LS and one Full MapInto and returns their durations.
func (c *chipMap) sweep(tr *tracer) (ls, full time.Duration, err error) {
	ctx := context.Background()
	t0 := time.Now()
	if err = c.an.MapInto(ctx, c.ls, c.pts, core.ModeLS); err != nil {
		return
	}
	t1 := time.Now()
	if err = c.an.MapInto(ctx, c.full, c.pts, core.ModeFull); err != nil {
		return
	}
	t2 := time.Now()
	tr.add(span{Layer: "core", Route: "ls", Parent: "op", Start: t0, End: t1})
	tr.add(span{Layer: "core", Route: "full", Parent: "op", Start: t1, End: t2})
	return t1.Sub(t0), t2.Sub(t1), nil
}

func (c *chipMap) measure(d time.Duration, tr *tracer) segment {
	var seg segment
	det := &chipSweeps{}
	seg.extra = det
	if _, _, err := c.sweep(nil); err != nil { // warm the pools
		seg.attempted, seg.failed = 1, 1
		return seg
	}
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		seg.attempted++
		opTr, into := alternate(tr, k, &seg)
		ls, full, err := c.sweep(opTr)
		if err != nil || c.check(chipCheckPoints) > 0 {
			seg.failed++
			continue
		}
		*into = append(*into, ms(ls+full))
		det.lsMs = append(det.lsMs, ms(ls))
		det.fullMs = append(det.fullMs, ms(full))
	}
	return seg
}

// check compares n seeded points of the last sweeps against the
// per-point reference path and returns how many disagree.
func (c *chipMap) check(n int) int {
	bad := 0
	for k := 0; k < n; k++ {
		i := c.rng.Intn(len(c.pts))
		p := c.pts[i]
		if stressDiff(c.ls[i], c.an.StressLS(p)) > parityTol || stressDiff(c.full[i], c.an.StressAt(p)) > parityTol {
			bad++
		}
	}
	return bad
}

func (c *chipMap) verify() (int, int) {
	if c.check(256) > 0 {
		return 1, 1
	}
	return 1, 0
}

func (c *chipMap) tailQ() float64 { return 0.95 }

func (c *chipMap) named(seg segment) map[string]recMetric {
	det := seg.extra.(*chipSweeps)
	n := float64(len(c.pts))
	perS := func(msv []float64) []float64 {
		out := make([]float64, len(msv))
		for i, v := range msv {
			out[i] = n / (v / 1e3)
		}
		return out
	}
	full, ls := perS(det.fullMs), perS(det.lsMs)
	return map[string]recMetric{
		"full_pts_per_s": {Value: median(full), Unit: "1/s", Samples: len(full), Spread: blockSpread(full, 5, median), Slot: mP50},
		"ls_pts_per_s":   {Value: median(ls), Unit: "1/s", Samples: len(ls), Spread: blockSpread(ls, 5, median), Slot: mP50},
	}
}

func (c *chipMap) layers(seg segment, _ *tracer) map[string]layerMetric {
	out := map[string]layerMetric{}
	det := seg.extra.(*chipSweeps)
	fullMs, lsMs := median(det.fullMs), median(det.lsMs)
	out["core.ar_pct"] = layerMetric{Value: 100 * (fullMs - lsMs) / lsMs, Unit: "%",
		Moves: "Table 6 AR, next to latency_p50_ms@chip_map (a faster LS raises it)"}

	st := chipStructure()
	var build, model []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := core.New(st, c.pl, core.Options{Workers: pinnedWorkers()}); err == nil {
			build = append(build, msSince(t))
		}
		t = time.Now()
		if _, err := interact.New(st, 0); err == nil {
			model = append(model, msSince(t))
		}
	}
	out["core.build_ms"] = layerMetric{Value: median(build), Unit: "ms", Moves: "setup_s@chip_map,eco_session"}
	out["interact.model_build_ms"] = layerMetric{Value: median(model), Unit: "ms", Moves: "setup_s@chip_map,eco_session"}
	entries, hits := c.an.Model.CoeffCacheStats()
	out["interact.coeff_cache_entries"] = layerMetric{Value: float64(entries), Unit: "count", Moves: "setup_s@chip_map,eco_session"}
	out["interact.coeff_cache_hits"] = layerMetric{Value: float64(hits), Unit: "count", Moves: "setup_s@chip_map,eco_session"}

	opt := c.an.Options()
	var tiling []float64
	var full *core.Tiling
	for i := 0; i < 5; i++ {
		t := time.Now()
		tl, err := core.NewTiling(c.pts, opt.GatherCutoff(core.ModeFull))
		if err != nil {
			continue
		}
		tiling = append(tiling, msSince(t))
		full = tl
	}
	out["core.tiling_ms"] = layerMetric{Value: median(tiling), Unit: "ms", Moves: "latency_p50_ms@chip_map"}
	out["core.stage1_ns_per_pt"] = layerMetric{Value: c.stageNsPerPt(core.ModeLS), Unit: "ns", Moves: "latency_p50_ms@chip_map"}
	out["core.stage2_ns_per_pt"] = layerMetric{Value: c.stageNsPerPt(core.ModeInteractive), Unit: "ns", Moves: "latency_p50_ms@chip_map"}

	// Scaling: the same Full sweep on one worker against the pinned
	// worker count.
	if one, err := core.New(st, c.pl, core.Options{Workers: 1}); err == nil {
		var t1 []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			if one.MapInto(context.Background(), c.full, c.pts, core.ModeFull) == nil {
				t1 = append(t1, msSince(t))
			}
		}
		n := float64(pinnedWorkers())
		out["core.scaling_eff"] = layerMetric{Value: median(t1) / (n * fullMs), Unit: "ratio", Moves: "latency_p50_ms@chip_map"}
	}

	var m0, m1 runtime.MemStats
	const k = 5
	runtime.ReadMemStats(&m0)
	for i := 0; i < k; i++ {
		_ = c.an.MapInto(context.Background(), c.full, c.pts, core.ModeFull) // timing-free probe; errors surface in measure
	}
	runtime.ReadMemStats(&m1)
	out["core.allocs_per_map"] = layerMetric{Value: float64(m1.Mallocs-m0.Mallocs) / k, Unit: "count", Moves: "mem_peak_mb@chip_map"}

	out["core.points"] = layerMetric{Value: float64(len(c.pts)), Unit: "count", Moves: "input size of chip_map"}
	if full != nil {
		out["core.tiles"] = layerMetric{Value: float64(full.NumTiles()), Unit: "count", Moves: "input size of chip_map"}
	}
	out["core.pair_rounds"] = layerMetric{Value: float64(c.an.NumPairRounds()), Unit: "count", Moves: "input size of chip_map"}
	return out
}

// stageNsPerPt times EvalTiles over every tile of the mode's own tiling:
// ModeLS is Stage I alone, ModeInteractive Stage II alone.
func (c *chipMap) stageNsPerPt(mode core.Mode) float64 {
	tl, err := core.NewTiling(c.pts, c.an.Options().GatherCutoff(mode))
	if err != nil {
		return 0
	}
	ids := make([]int32, tl.NumTiles())
	for i := range ids {
		ids[i] = int32(i)
	}
	var ns []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if c.an.EvalTiles(context.Background(), c.full, c.pts, tl, ids, mode) == nil {
			ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(len(c.pts)))
		}
	}
	return median(ns)
}

func (c *chipMap) close() { c.an, c.pts, c.ls, c.full = nil, nil, nil, nil }
