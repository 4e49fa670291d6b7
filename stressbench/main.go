// Command stressbench is the repository's benchmark: one command that
// runs the stress engine's workloads, checks their outputs and prints
// every end-to-end metric by name with its unit. See README.md for the
// workloads, the metrics and which layer each per-layer metric should
// move.
//
// Usage, from the repository root:
//
//	bash stressbench/run.sh --workload chip_map --seed 1 --seconds 45 --trace 0
//	bash stressbench/run.sh compare old.json new.json
//
// With --trace 0 the workload runs untraced and the last line of
// standard output is {"correct","attempted","failed","metrics"} with the
// end-to-end metrics. With --trace 1 the run measures every layer: it
// runs all workloads, the named one first, each for an equal share of
// --seconds with every other operation traced, and reports the
// per-layer metrics plus the tracing overhead. The full record (host
// stamp, medians, within-run spreads) goes to standard error and, with
// --out, to a file that the compare step reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recMetric is a metric in a record: its value, the within-run spread
// (relative IQR over blocks or repeats) and the sample count.
type recMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread"`
	Samples int     `json:"samples"`
	// Slot names the end-to-end metric this value is reported as, when
	// it is one.
	Slot string `json:"slot,omitempty"`
}

// layerMetric is a per-layer metric with the end-to-end metric and
// workload it is predicted to move.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// Record is what one run measured, with the stamp of where.
type Record struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Stamp     Stamp                  `json:"stamp"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]recMetric   `json:"metrics"`
	Named     map[string]recMetric   `json:"named,omitempty"`
	Layers    map[string]layerMetric `json:"layers,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// result is the last line of standard output, what a harness reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metric names. Every workload reports all of them; the
// operation behind the latencies is the workload's own (see README.md).
const (
	mSetup   = "setup_s"
	mMemPeak = "mem_peak_mb"
	mP50     = "latency_p50_ms"
	mTail    = "latency_tail_ms"
)

// workload is one named set of generated inputs and the operations run
// on them.
type workload interface {
	// setup builds the workload's state from seed, once close has
	// released any earlier state, and returns the time a user waits
	// before the first operation can run.
	setup(seed int64) (time.Duration, error)
	// measure runs operations for d and returns what it observed. With
	// a non-nil tracer every other operation is traced: its layer spans
	// go to tr and its latency to segment.opsMs, while the untraced ones
	// go to segment.plainMs, so the two sets see the same host state
	// and input mix.
	measure(d time.Duration, tr *tracer) segment
	// verify checks the outputs the workload produced against an
	// independent evaluation; it returns checks run and checks failed.
	verify() (checks, failures int)
	// layers measures the per-layer metrics from a traced segment and
	// the workload's probes.
	layers(seg segment, tr *tracer) map[string]layerMetric
	// named returns the workload's own end-to-end metrics under the
	// names its users know them by, mapped to the generic slots.
	named(seg segment) map[string]recMetric
	// tailQ is the quantile latency_tail_ms reports: the highest of
	// p90/p95/p99 with at least ten samples beyond it in a 45 s run.
	tailQ() float64
	close()
}

// segment is one timed stretch of operations.
type segment struct {
	opsMs     []float64 // per-operation latency in the order run
	plainMs   []float64 // untraced operations of a traced segment
	attempted int
	failed    int
	gcPauseMs float64
	goroutMax int
	extra     any // workload-specific observations
}

var workloads = map[string]func(root string) workload{
	"chip_map":    func(string) workload { return &chipMap{} },
	"eco_session": func(string) workload { return &ecoSession{} },
	"serve_fleet": func(root string) workload { return &serveFleet{root: root} },
}

// workloadOrder is the order a traced run visits the workloads in,
// after the named one.
var workloadOrder = []string{"chip_map", "eco_session", "serve_fleet"}

// setupRepeats is how many times each workload sets up in an untraced
// run; setup_s is the median.
var setupRepeats = map[string]int{"chip_map": 3, "eco_session": 3, "serve_fleet": 41}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: chip_map, eco_session or serve_fleet")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 45, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", "", "also write the record to this file")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "stressbench: need --workload chip_map|eco_session|serve_fleet, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	rec, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stressbench:", err)
		os.Exit(1)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil { // a NaN or Inf metric: something was not measured
		fmt.Fprintln(os.Stderr, "stressbench: record:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, string(b))
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "stressbench:", err)
			os.Exit(1)
		}
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	if rec.Trace {
		for k, m := range rec.Layers {
			res.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for k, m := range rec.Metrics {
			res.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, _ := json.Marshal(res) // plain data, cannot fail
	fmt.Println(string(line))
}

// run measures one workload (untraced) or every layer (traced). Scratch
// files go under .bench_build/tmp of the working directory, the
// checkout root, and are removed before it returns.
func run(name string, seed int64, seconds int, traced bool) (*Record, error) {
	root, err := os.MkdirTemp(ensureDir(filepath.Join(".bench_build", "tmp")), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rec := &Record{Workload: name, Trace: traced, Seconds: seconds, Stamp: newStamp(seed, root), Correct: true}
	if !traced {
		return rec, runUntraced(rec, name, seed, time.Duration(seconds)*time.Second, root)
	}
	order := []string{name}
	for _, w := range workloadOrder {
		if w != name {
			order = append(order, w)
		}
	}
	rec.Layers = map[string]layerMetric{}
	share := time.Duration(seconds) * time.Second / time.Duration(len(order))
	for _, w := range order {
		if err := runTraced(rec, w, seed, share, root); err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
	}
	if missing := missingLayers(rec.Layers); len(missing) > 0 {
		return nil, fmt.Errorf("traced run lacks per-layer metrics %v", missing)
	}
	return rec, nil
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func runUntraced(rec *Record, name string, seed int64, d time.Duration, root string) error {
	w := workloads[name](root)
	defer w.close()
	var setups []float64
	var peak float64
	for i := 0; i < setupRepeats[name]; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC() // every set-up starts from the same heap
		t, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t.Seconds())
		peak = math.Max(peak, liveHeap())
	}
	seg := measureSeg(w, d, nil)
	afterOps := liveHeap()
	checks, bad := w.verify()

	rec.Attempted = seg.attempted + checks
	rec.Failed = seg.failed + bad
	rec.Correct = checks > 0 && bad == 0
	if len(seg.opsMs) == 0 {
		return errors.New("no operation completed")
	}
	q := w.tailQ()
	rec.Metrics = map[string]recMetric{
		mSetup:   {Value: median(setups), Unit: "s", Spread: relIQR(setups), Samples: len(setups)},
		mMemPeak: {Value: peak / (1 << 20), Unit: "MB", Samples: len(setups)},
		mP50: {Value: median(seg.opsMs), Unit: "ms", Samples: len(seg.opsMs),
			Spread: blockSpread(seg.opsMs, 5, median)},
		mTail: {Value: percentile(seg.opsMs, q), Unit: "ms", Samples: len(seg.opsMs),
			Spread: blockSpread(seg.opsMs, 5, func(x []float64) float64 { return percentile(x, q) })},
	}
	rec.Named = w.named(seg)
	// What the operations left live grows with how many of them fit in
	// the run (eco_session's pitch-coefficient cache does), so a faster
	// program would read as a bigger one: it is recorded, not bounded.
	rec.Named["mem_after_ops_mb"] = recMetric{Value: afterOps / (1 << 20), Unit: "MB", Samples: 1}
	rec.Named["fail_ratio"] = recMetric{Value: float64(rec.Failed) / float64(rec.Attempted), Unit: "ratio", Samples: rec.Attempted}
	return nil
}

// measureSeg runs one segment and adds the runtime's view of it: GC
// pause time and, when traced, the most goroutines seen.
func measureSeg(w workload, d time.Duration, tr *tracer) segment {
	var s *sampler
	if tr != nil {
		s = startSampler(runtimeProbe)
	}
	gc0 := gcPauseTotal()
	seg := w.measure(d, tr)
	seg.gcPauseMs = ms(gcPauseTotal() - gc0)
	if s != nil {
		s.stop()
		seg.goroutMax = int(s.max("goroutines"))
	}
	return seg
}

// runTraced sets the workload up once, measures a segment of length d
// in which every other operation is traced, verifies, and adds the
// per-layer metrics and the tracing overhead to rec.
func runTraced(rec *Record, name string, seed int64, d time.Duration, root string) error {
	w := workloads[name](root)
	defer w.close()
	t, err := w.setup(seed)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	tr := &tracer{}
	seg := measureSeg(w, d, tr)
	checks, bad := w.verify()
	rec.Attempted += seg.attempted + checks
	rec.Failed += seg.failed + bad
	rec.Correct = rec.Correct && checks > 0 && bad == 0
	if len(seg.plainMs) == 0 || len(seg.opsMs) == 0 {
		return errors.New("no operation completed")
	}
	for k, m := range w.layers(seg, tr) {
		rec.Layers[k] = m
	}
	p, q := median(seg.plainMs), median(seg.opsMs)
	rec.Layers["trace.overhead_pct."+name] = layerMetric{Value: 100 * (q - p) / p, Unit: "%",
		Moves: mP50 + "@" + name + " (traced minus untraced median; not an optimisation target)"}
	rec.Notes = append(rec.Notes, fmt.Sprintf("%s: set-up %.3fs, untraced p50 %.3fms (%d ops), traced p50 %.3fms (%d ops)",
		name, t.Seconds(), p, len(seg.plainMs), q, len(seg.opsMs)))
	return nil
}

// missingLayers lists the per-layer metrics BENCHMARK.json declares that
// the traced run did not produce. Without BENCHMARK.json (running the
// benchmark outside a checkout) nothing is checked.
func missingLayers(got map[string]layerMetric) []string {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var missing []string
	for _, m := range spec.PerLayer {
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	return missing
}

// spec is the part of BENCHMARK.json the benchmark reads back.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain compares two untraced records of one workload against the
// bounds in BENCHMARK.json. It refuses records from different hosts,
// worker counts or toolchains. Exit 0: no metric worse than its bound;
// 1: a regression; 2: the records cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: stressbench compare <old.json> <new.json>")
		return 2
	}
	var recs [2]Record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stressbench compare:", err)
			return 2
		}
	}
	old, cur := recs[0], recs[1]
	if why := old.Stamp.comparable(cur.Stamp); why != "" {
		fmt.Fprintln(os.Stderr, "stressbench compare: refusing records from different set-ups:", why)
		return 2
	}
	if old.Workload != cur.Workload || old.Trace || cur.Trace {
		fmt.Fprintln(os.Stderr, "stressbench compare: need two untraced records of one workload")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stressbench compare:", err)
		return 2
	}
	status := 0
	sort.Slice(sp.EndToEnd, func(i, j int) bool { return sp.EndToEnd[i].Name < sp.EndToEnd[j].Name })
	for _, m := range sp.EndToEnd {
		a, b := old.Metrics[m.Name], cur.Metrics[m.Name]
		if a.Value == 0 || b.Value == 0 {
			fmt.Printf("%-16s missing in a record\n", m.Name)
			status = 1
			continue
		}
		worse := (b.Value - a.Value) / a.Value
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "REGRESSION"
			status = 1
		}
		fmt.Printf("%-16s %12.4f -> %12.4f %-3s  worse by %+6.1f%% (bound %.0f%%)  %s\n",
			m.Name, a.Value, b.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
	}
	return status
}
