package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tsvstress/internal/faultinject"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

func cancelTestAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(60, 1e-2, 2*st.RPrime+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(st, pl, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// TestMapIntoPreCanceled pins the fast path: a context that is already
// dead aborts before any tile work, for a large map and for a tiny
// batch alike.
func TestMapIntoPreCanceled(t *testing.T) {
	an := cancelTestAnalyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	pts := gridPoints(t, an.Placement, 1.0) // large: many tiles
	dst := make([]tensor.Stress, len(pts))
	err := an.MapInto(ctx, dst, pts, ModeFull)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("large MapInto(pre-canceled) = %v, want *CancelError", err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelError does not match ErrCanceled and its cause: %v", err)
	}
	if ce.TilesDone != 0 {
		t.Fatalf("pre-canceled run completed %d tiles", ce.TilesDone)
	}

	small := pts[:4] // tiny: one tile
	err = an.MapInto(ctx, make([]tensor.Stress, len(small)), small, ModeFull)
	if !errors.As(err, &ce) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("tiny MapInto(pre-canceled) = %v, want *CancelError", err)
	}
}

// TestMapIntoDeadlineAbortsMidMap arms a per-tile delay so the map
// cannot finish inside its deadline, and checks the evaluation stops
// after a bounded number of tiles — within one tile's work per worker
// of the deadline — instead of running to completion. The analyzer
// must stay fully usable afterwards.
func TestMapIntoDeadlineAbortsMidMap(t *testing.T) {
	defer faultinject.Reset()
	an := cancelTestAnalyzer(t)
	pts := gridPoints(t, an.Placement, 1.0)
	dst := make([]tensor.Stress, len(pts))

	faultinject.Set("core.tile.eval", faultinject.Fault{Delay: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := an.MapInto(ctx, dst, pts, ModeFull)
	elapsed := time.Since(start)

	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("MapInto under deadline = %v, want *CancelError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CancelError cause = %v, want DeadlineExceeded", err)
	}
	if ce.TilesDone >= ce.TilesTotal || ce.TilesTotal == 0 {
		t.Fatalf("progress %d/%d does not reflect an aborted map", ce.TilesDone, ce.TilesTotal)
	}
	// With 5ms per tile, a non-cooperative run would take TilesTotal×5ms
	// on 2 workers; the abort must land near the 25ms deadline plus at
	// most ~one in-flight tile per worker.
	if budget := 25*time.Millisecond + 10*2*5*time.Millisecond; elapsed > budget {
		t.Fatalf("aborted map took %v, want ≤ %v (tiles %d)", elapsed, budget, ce.TilesTotal)
	}
	faultinject.Reset()

	// The analyzer is stateless across calls: a clean retry matches a
	// fresh evaluation exactly.
	want := an.Map(pts, ModeFull)
	if err := an.MapInto(context.Background(), dst, pts, ModeFull); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	for i := range dst {
		if d := maxAbsDiff(dst[i], want[i]); d > 0 {
			t.Fatalf("retry slot %d differs by %g", i, d)
		}
	}
}

// TestMapIntoNilContext pins that nil disables cancellation (the
// internal callers' contract).
func TestMapIntoNilContext(t *testing.T) {
	an := cancelTestAnalyzer(t)
	pts := gridPoints(t, an.Placement, 2.0)
	if err := an.MapInto(nil, make([]tensor.Stress, len(pts)), pts, ModeFull); err != nil { //nolint:staticcheck
		t.Fatalf("MapInto(nil ctx) = %v", err)
	}
}

// TestKernelPanicContained injects a panic into a tile kernel and
// checks it surfaces as a *PanicError — not a dead process, and not a
// cancellation.
func TestKernelPanicContained(t *testing.T) {
	defer faultinject.Reset()
	an := cancelTestAnalyzer(t)
	pts := gridPoints(t, an.Placement, 1.0)
	dst := make([]tensor.Stress, len(pts))

	faultinject.Set("core.tile.eval", faultinject.Fault{Panic: "tile kernel exploded", Times: 1})
	err := an.MapInto(context.Background(), dst, pts, ModeFull)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MapInto with panicking kernel = %v, want *PanicError", err)
	}
	if pe.Value != "tile kernel exploded" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {%v, %d-byte stack}", pe.Value, len(pe.Stack))
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("a contained panic must not match ErrCanceled")
	}

	// Contained means contained: the analyzer serves the next call.
	if err := an.MapInto(context.Background(), dst, pts, ModeFull); err != nil {
		t.Fatalf("MapInto after contained panic: %v", err)
	}
}
