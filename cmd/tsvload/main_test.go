package main

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestQuantileMsNearestRank pins the nearest-rank definition: with ten
// samples p95 is the largest, not the ninth, and p99 of fewer than 100
// samples never under-reports the tail.
func TestQuantileMsNearestRank(t *testing.T) {
	lat := make([]time.Duration, 10)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.50, 5},
		{0.95, 10},
		{0.99, 10},
		{1, 10},
		{0.1, 1},
		{0, 1},
	} {
		if got := quantileMs(lat, c.q); got != c.want {
			t.Errorf("quantileMs(1..10 ms, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantileMs(nil, 0.99); got != 0 {
		t.Errorf("quantileMs(empty) = %g, want 0", got)
	}
}

// TestReportHostStamp: every report says where it ran, and the
// per-route percentiles come from the recorded latencies.
func TestReportHostStamp(t *testing.T) {
	r := &loadRun{rec: newRecorder()}
	for i := 1; i <= 10; i++ {
		r.rec.observe("map", time.Duration(11-i)*time.Millisecond, http.StatusOK, false)
	}
	rep := r.report(1, 1, time.Second)
	if rep.HostCPUs != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.GoVersion != runtime.Version() {
		t.Errorf("host stamp = %d CPUs, GOMAXPROCS %d, %q", rep.HostCPUs, rep.GOMAXPROCS, rep.GoVersion)
	}
	rs := rep.Routes["map"]
	if rs.Count != 10 || rs.P50Ms != 5 || rs.P95Ms != 10 || rs.MaxMs != 10 {
		t.Errorf("map route = %+v, want count 10, p50 5, p95 10, max 10", rs)
	}
}
