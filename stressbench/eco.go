package main

import (
	"context"
	"math/rand"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/incr"
	"tsvstress/internal/tensor"
)

// ecoSession is one large incremental session built the way tsvserve
// builds it — an unmasked grid over the placement bounds, Full mode —
// driven by one caller in a closed loop. One operation is a batch of
// 1–3 edits applied and flushed.
type ecoSession struct {
	e      *incr.Engine
	pts    []geom.Point
	mirror *geom.Placement // the edit generator's copy of the placement
	region geom.Rect       // where added TSVs land
	rng    *rand.Rand      // the edit stream's positions
	// batches and edits count the stream so far; they fix the shape of
	// the next batch.
	batches, edits int
	initMs         float64
}

// ecoBatches is ecoSession's segment detail.
type ecoBatches struct{ dirtyTiles, dirtyRatio []float64 }

func (c *ecoSession) setup(seed int64) (time.Duration, error) {
	pl, err := chipPlacement(seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	g, err := field.NewGrid(pl.Bounds(5), gridSpacing(pl))
	if err != nil {
		return 0, err
	}
	e, err := incr.New(context.Background(), chipStructure(), pl, g.Points(), core.ModeFull, core.Options{Workers: pinnedWorkers()})
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	c.e, c.pts, c.initMs = e, e.Points(), ms(took)
	c.mirror, c.region = pl.Clone(), pl.Bounds(0)
	c.rng = rand.New(rand.NewSource(seed ^ 0x65636f))
	c.batches, c.edits = 0, 0
	return took, nil
}

// nextBatch returns the next batch of the edit stream, valid in
// sequence against the mirror and applied to it. Batch shapes cycle
// deterministically — [add], [move, remove], [add, move, remove] — so
// every seed runs the same mix of 1–3 edit batches and keeps its TSV
// count; the seed only picks which TSVs and where.
func (c *ecoSession) nextBatch() []geom.Edit {
	minPitch := 2 * chipStructure().RPrime
	n := 1 + c.batches%3
	c.batches++
	out := make([]geom.Edit, 0, n)
	for len(out) < n {
		var ed geom.Edit
		switch c.edits % 3 {
		case 0:
			p := geom.Pt(c.region.Min.X+c.rng.Float64()*c.region.W(), c.region.Min.Y+c.rng.Float64()*c.region.H())
			ed = geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: p}}
		case 1:
			i := c.rng.Intn(c.mirror.Len())
			p := c.mirror.TSVs[i].Center.Add(geom.Pt(c.rng.Float64()*8-4, c.rng.Float64()*8-4))
			ed = geom.Edit{Op: geom.EditMove, Index: i, TSV: geom.TSV{Center: p}}
		default:
			ed = geom.Edit{Op: geom.EditRemove, Index: c.rng.Intn(c.mirror.Len())}
		}
		if ed.Apply(c.mirror, minPitch) == nil { // else redraw the same op
			out = append(out, ed)
			c.edits++
		}
	}
	return out
}

func (c *ecoSession) measure(d time.Duration, tr *tracer) segment {
	var seg segment
	det := &ecoBatches{}
	seg.extra = det
	ctx := context.Background()
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		batch := c.nextBatch()
		seg.attempted++
		opTr, into := alternate(tr, k, &seg)
		t0 := time.Now()
		var err error
		for _, ed := range batch {
			ta := time.Now()
			if err = c.e.Apply(ed); err != nil {
				break
			}
			opTr.add(span{Layer: "incr", Route: "apply", Parent: "op", Start: ta, End: time.Now()})
		}
		if err != nil {
			seg.failed++
			continue
		}
		tf := time.Now()
		if _, err = c.e.Flush(ctx); err != nil {
			seg.failed++
			continue
		}
		t1 := time.Now()
		opTr.add(span{Layer: "incr", Route: "flush", Parent: "op", Start: tf, End: t1})
		*into = append(*into, ms(t1.Sub(t0)))
		st := c.e.Stats()
		det.dirtyTiles = append(det.dirtyTiles, float64(st.LastDirtyTiles))
		det.dirtyRatio = append(det.dirtyRatio, st.LastDirtyRatio)
	}
	return seg
}

// verify rebuilds the edited placement from scratch and maps the same
// points: the incremental map must agree everywhere.
func (c *ecoSession) verify() (int, int) {
	an, err := core.New(chipStructure(), c.e.Placement(), core.Options{Workers: pinnedWorkers()})
	if err != nil {
		return 1, 1
	}
	want := make([]tensor.Stress, len(c.pts))
	if an.MapInto(context.Background(), want, c.pts, core.ModeFull) != nil {
		return 1, 1
	}
	for i, v := range c.e.Values() {
		if stressDiff(v, want[i]) > parityTol {
			return 1, 1
		}
	}
	return 1, 0
}

func (c *ecoSession) tailQ() float64 { return 0.9 }

func (c *ecoSession) named(seg segment) map[string]recMetric {
	return map[string]recMetric{
		"flush_p50_ms": {Value: median(seg.opsMs), Unit: "ms", Samples: len(seg.opsMs), Spread: blockSpread(seg.opsMs, 5, median), Slot: mP50},
		"flush_p90_ms": {Value: percentile(seg.opsMs, 0.9), Unit: "ms", Samples: len(seg.opsMs), Slot: mTail},
		"flush_p95_ms": {Value: percentile(seg.opsMs, 0.95), Unit: "ms", Samples: len(seg.opsMs)},
	}
}

func (c *ecoSession) layers(seg segment, tr *tracer) map[string]layerMetric {
	det := seg.extra.(*ecoBatches)
	applyUs := durationsMs(tr.byLayer("incr", "apply"))
	for i := range applyUs {
		applyUs[i] *= 1e3
	}
	flush := "latency_p50_ms,latency_tail_ms@eco_session"
	out := map[string]layerMetric{
		"incr.init_ms":     {Value: c.initMs, Unit: "ms", Moves: "setup_s@eco_session"},
		"incr.apply_us":    {Value: median(applyUs), Unit: "us", Moves: flush},
		"incr.flush_ms":    {Value: median(durationsMs(tr.byLayer("incr", "flush"))), Unit: "ms", Moves: flush},
		"incr.dirty_tiles": {Value: median(det.dirtyTiles), Unit: "count", Moves: flush},
		"incr.dirty_ratio": {Value: median(det.dirtyRatio), Unit: "ratio", Moves: flush},
	}

	// Stage II on the session's points inside and outside TSV
	// footprints: the interior cold path costs far more per point.
	pl := c.e.Placement()
	outside := field.OutsideTSVs(pl, chipStructure().RPrime)
	in := field.Masked(c.pts, func(p geom.Point) bool { return !outside(p) })
	ex := field.Masked(c.pts, outside)
	an := c.e.Analyzer()
	nsPerPt := func(pts []geom.Point) float64 {
		dst := make([]tensor.Stress, len(pts))
		t := time.Now()
		if an.MapInto(context.Background(), dst, pts, core.ModeInteractive) != nil || len(pts) == 0 {
			return 0
		}
		return float64(time.Since(t).Nanoseconds()) / float64(len(pts))
	}
	out["core.stage2_interior_ns_per_pt"] = layerMetric{Value: nsPerPt(in), Unit: "ns", Moves: "latency_p50_ms@eco_session, not chip_map"}
	out["core.stage2_exterior_ns_per_pt"] = layerMetric{Value: nsPerPt(ex), Unit: "ns", Moves: "latency_p50_ms@eco_session"}
	out["core.interior_share"] = layerMetric{Value: float64(len(in)) / float64(len(c.pts)), Unit: "ratio",
		Moves: "input of eco_session and serve_fleet: served grids are unmasked"}
	return out
}

func (c *ecoSession) close() { c.e, c.pts = nil, nil }
