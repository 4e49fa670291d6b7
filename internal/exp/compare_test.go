package exp

import (
	"strings"
	"testing"
)

const oldBench = `{
  "num_points": 100000, "workers": 1,
  "full_ms": 500.0, "ls_ms": 100.0,
  "full_ns_per_point": 2000.0, "ls_ns_per_point": 400.0,
  "full_points_per_sec": 50000.0,
  "generated_at_unix": 1700000000
}`

func compare(t *testing.T, newJSON string, tol float64) []BenchDelta {
	t.Helper()
	deltas, err := CompareBenchJSON(strings.NewReader(oldBench), strings.NewReader(newJSON), tol)
	if err != nil {
		t.Fatal(err)
	}
	return deltas
}

func regressions(deltas []BenchDelta) []string {
	var r []string
	for _, d := range deltas {
		if d.Regression {
			r = append(r, d.Metric)
		}
	}
	return r
}

func TestCompareImprovement(t *testing.T) {
	deltas := compare(t, `{
	  "full_ms": 250.0, "ls_ms": 90.0,
	  "full_ns_per_point": 1000.0, "ls_ns_per_point": 360.0,
	  "full_points_per_sec": 100000.0
	}`, 0.10)
	if len(deltas) != 5 {
		t.Fatalf("got %d deltas, want 5 (counts and timestamps must not be compared)", len(deltas))
	}
	if r := regressions(deltas); len(r) != 0 {
		t.Fatalf("improvement flagged as regression: %v", r)
	}
}

func TestCompareDirectionAware(t *testing.T) {
	// Latency up 50% and throughput down 50%: both are regressions;
	// a throughput that merely doubled must not be.
	deltas := compare(t, `{
	  "full_ms": 750.0, "ls_ms": 100.0,
	  "full_ns_per_point": 3000.0, "ls_ns_per_point": 400.0,
	  "full_points_per_sec": 25000.0
	}`, 0.10)
	r := regressions(deltas)
	want := []string{"full_ms", "full_ns_per_point", "full_points_per_sec"}
	if len(r) != len(want) {
		t.Fatalf("regressions %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("regressions %v, want %v", r, want)
		}
	}
}

func TestCompareToleranceAbsorbsNoise(t *testing.T) {
	// 8% slower is inside a 10% tolerance, outside a 5% one.
	noisy := `{
	  "full_ms": 540.0, "ls_ms": 100.0,
	  "full_ns_per_point": 2160.0, "ls_ns_per_point": 400.0,
	  "full_points_per_sec": 50000.0
	}`
	if r := regressions(compare(t, noisy, 0.10)); len(r) != 0 {
		t.Fatalf("8%% slip beyond 10%% tolerance: %v", r)
	}
	if r := regressions(compare(t, noisy, 0.05)); len(r) != 2 {
		t.Fatalf("8%% slip inside 5%% tolerance: %v", r)
	}
}

func TestCompareNoSharedMetrics(t *testing.T) {
	if _, err := CompareBenchJSON(strings.NewReader(`{"a": 1}`), strings.NewReader(`{"b": 2}`), 0.1); err == nil {
		t.Fatal("records with no shared metrics compared without error")
	}
}

func TestWriteBenchDeltas(t *testing.T) {
	deltas := compare(t, `{
	  "full_ms": 750.0, "ls_ms": 90.0,
	  "full_ns_per_point": 3000.0, "ls_ns_per_point": 360.0,
	  "full_points_per_sec": 50000.0
	}`, 0.10)
	var sb strings.Builder
	n, err := WriteBenchDeltas(&sb, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d regressions written, want 2", n)
	}
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "full_ms") {
		t.Fatalf("table missing expected content:\n%s", out)
	}
}
