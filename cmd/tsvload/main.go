// Command tsvload is the gateway's proof harness: a deterministic
// synthetic traffic generator that drives thousands of concurrent
// placement sessions of mixed create/edit/map/screen/aging traffic
// against a tsvgate (or a bare tsvserve) and writes a per-route
// latency/SLO report to results/LOAD_slo.json.
//
// Usage (10k-session run against a local two-replica topology):
//
//	tsvload -target http://127.0.0.1:9090 -sessions 10000 -workers 128
//
// Determinism: all traffic *content* — placements, edit batches, which
// sessions issue screen/aging calls, tenant assignment — is a pure
// function of -seed and the session index, so two runs against
// equivalent fleets replay the same workload (latencies, of course,
// are the measurement). A deterministic subset of sessions is
// shadow-verified: tsvload maintains the placement locally, fetches
// the served map, and recomputes it from scratch with the in-process
// engine; any point off by more than 1e-9 MPa is a parity failure.
//
// Exit status: 0 on success; 1 when -slo-p99-ms or -require-parity
// gates fail (the report is still written first); 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsvload: ")
	var (
		target      = flag.String("target", "http://127.0.0.1:9090", "gateway (or replica) base URL")
		sessions    = flag.Int("sessions", 10000, "placement sessions to create")
		workers     = flag.Int("workers", 128, "concurrent traffic workers")
		seed        = flag.Int64("seed", 1, "workload seed; traffic content is a pure function of seed and session index")
		editBatches = flag.Int("edit-batches", 3, "edit batches per session (each batch flushes incrementally)")
		tenants     = flag.Int("tenants", 4, "distinct tenants cycling through X-Tsvgate-Tenant")
		verifyN     = flag.Int("verify", 8, "sessions shadow-verified against an in-process from-scratch evaluation")
		screenEvery = flag.Int("screen-every", 4, "1-in-N sessions issue a reliability screen")
		agingEvery  = flag.Int("aging-every", 50, "1-in-N sessions issue an aging run (0 = never)")
		deleteEvery = flag.Int("delete-every", 16, "1-in-N sessions are deleted at the end of their script (0 = never)")
		revisits    = flag.Int("revisits", -1, "map re-reads over already-built sessions after the build pass, exercising eviction/rehydration (-1 = sessions/4)")
		mode        = flag.String("mode", "full", "session evaluation mode: full, ls or interactive")
		spacing     = flag.Float64("spacing", 3, "simulation-grid spacing in µm")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		out         = flag.String("out", filepath.Join("results", "LOAD_slo.json"), "report path")
		sloP99      = flag.Float64("slo-p99-ms", 0, "fail (exit 1) when any core route's p99 exceeds this many ms (0 = no gate)")
		reqParity   = flag.Bool("require-parity", false, "fail (exit 1) on any shadow-verification parity failure")
	)
	flag.Parse()
	if *sessions <= 0 || *workers <= 0 {
		log.Println("need -sessions > 0 and -workers > 0")
		os.Exit(2)
	}
	if *revisits < 0 {
		*revisits = *sessions / 4
	}
	if *verifyN > *sessions {
		*verifyN = *sessions
	}

	client := &http.Client{Timeout: *timeout}
	rec := newRecorder()
	run := &loadRun{
		target:  *target,
		client:  client,
		rec:     rec,
		seed:    *seed,
		tenants: *tenants,
		mode:    *mode,
		spacing: *spacing,
		cfg: scriptConfig{
			editBatches: *editBatches,
			screenEvery: *screenEvery,
			agingEvery:  *agingEvery,
			deleteEvery: *deleteEvery,
		},
	}

	log.Printf("driving %d sessions (%d workers, seed %d) against %s", *sessions, *workers, *seed, *target)
	start := time.Now()

	// Build pass: every session runs its deterministic script.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run.runSession(i, i < *verifyN)
			}
		}()
	}
	for i := 0; i < *sessions; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	buildDone := time.Now()
	log.Printf("build pass done in %v: %d sessions live", buildDone.Sub(start).Round(time.Millisecond), run.liveCount())

	// Revisit pass: re-read maps of a deterministic shuffle of the live
	// sessions. Under -max-live-sessions on the replicas this is the
	// eviction/rehydration workout — cold sessions must come back with
	// their exact state.
	if *revisits > 0 {
		run.revisit(*revisits, *workers)
		log.Printf("revisit pass done: %d map re-reads in %v", *revisits, time.Since(buildDone).Round(time.Millisecond))
	}

	wall := time.Since(start)
	report := run.report(*sessions, *workers, wall)
	if err := writeReport(*out, report); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s (%d requests, %.1f req/s, %d errors, %d parity checks / %d failures)",
		*out, report.TotalRequests, report.ThroughputRPS, report.TotalErrors,
		report.Parity.Checked, report.Parity.Failures)

	fail := false
	if *reqParity && report.Parity.Failures > 0 {
		log.Printf("GATE: %d parity failure(s)", report.Parity.Failures)
		fail = true
	}
	if *sloP99 > 0 {
		for _, route := range []string{"create", "edits", "map"} {
			if rs, ok := report.Routes[route]; ok && rs.P99Ms > *sloP99 {
				log.Printf("GATE: route %s p99 %.1fms exceeds SLO %.1fms", route, rs.P99Ms, *sloP99)
				fail = true
			}
		}
	}
	if fail {
		os.Exit(1)
	}
}

// scriptConfig is the per-session script shape (all deterministic).
type scriptConfig struct {
	editBatches int
	screenEvery int
	agingEvery  int
	deleteEvery int
}

type loadRun struct {
	target  string
	client  *http.Client
	rec     *recorder
	seed    int64
	tenants int
	mode    string
	spacing float64
	cfg     scriptConfig

	mu                            sync.Mutex
	live                          []string // ids of sessions left alive after their script
	parityChecked, parityFailures int
}

func (r *loadRun) liveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// rng returns the session's private deterministic stream. Workers race
// on the wire, never on the content.
func (r *loadRun) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + int64(i)))
}

func (r *loadRun) tenant(i int) string {
	if r.tenants <= 0 {
		return "default"
	}
	return fmt.Sprintf("t%d", i%r.tenants)
}

// placement builds session i's initial lattice: 2x2 .. 3x3 at 24µm
// pitch with ±4µm jitter (min pitch stays ≥ 16µm, far above the 2R'
// = 6µm design-rule floor).
func (r *loadRun) placement(rng *rand.Rand) serve.CreateRequest {
	req := serve.CreateRequest{Spacing: r.spacing, Margin: 5, Mode: r.mode}
	n := 2 + rng.Intn(2)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			req.TSVs = append(req.TSVs, serve.TSVWire{
				X: float64(24*i) + rng.Float64()*8 - 4,
				Y: float64(24*j) + rng.Float64()*8 - 4,
			})
		}
	}
	return req
}

// editBatch draws 1–3 edits valid against the mirror (the server's
// atomic-rehearsal semantics) and applies them to it.
func (r *loadRun) editBatch(rng *rand.Rand, mirror *geom.Placement, minPitch float64) []serve.EditWire {
	n := 1 + rng.Intn(3)
	var wires []serve.EditWire
	for len(wires) < n {
		var ed geom.Edit
		var ew serve.EditWire
		switch op := rng.Intn(3); {
		case op == 1 && mirror.Len() > 4:
			idx := rng.Intn(mirror.Len())
			ed = geom.Edit{Op: geom.EditRemove, Index: idx}
			ew = serve.EditWire{Op: "remove", Index: idx}
		case op == 2:
			idx := rng.Intn(mirror.Len())
			c := mirror.TSVs[idx].Center.Add(geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4))
			ed = geom.Edit{Op: geom.EditMove, Index: idx, TSV: geom.TSV{Center: c}}
			ew = serve.EditWire{Op: "move", Index: idx, X: c.X, Y: c.Y}
		default:
			c := geom.Pt(rng.Float64()*90-10, rng.Float64()*90-10)
			ed = geom.Edit{Op: geom.EditAdd, TSV: geom.TSV{Center: c}}
			ew = serve.EditWire{Op: "add", X: c.X, Y: c.Y}
		}
		if err := ed.Apply(mirror, minPitch); err != nil {
			continue // invalid against the running batch; redraw
		}
		wires = append(wires, ew)
	}
	return wires
}

// runSession drives one session's full deterministic script.
func (r *loadRun) runSession(i int, verify bool) {
	rng := r.rng(i)
	tenant := r.tenant(i)
	create := r.placement(rng)

	var created serve.CreateResponse
	status, err := r.do("create", "POST", "/v1/placements", tenant, create, &created)
	if err != nil || status != http.StatusCreated {
		return // recorded; a failed create ends the script
	}
	base := "/v1/placements/" + created.ID

	// probe mirrors the server's placement state edit-for-edit; names
	// are irrelevant to the stress field, so it goes nameless. The
	// server builds its simulation grid once at create time, so the
	// parity reference must use the *original* bounds.
	probe := &geom.Placement{}
	for _, tw := range create.TSVs {
		probe.TSVs = append(probe.TSVs, geom.TSV{Center: geom.Pt(tw.X, tw.Y)})
	}
	var orig *geom.Placement
	if verify {
		orig = probe.Clone()
	}
	minPitch := 2 * material.Baseline(material.BCB).RPrime

	for b := 0; b < r.cfg.editBatches; b++ {
		wires := r.editBatch(rng, probe, minPitch)
		var er serve.EditsResponse
		if status, err = r.do("edits", "POST", base+"/edits", tenant, serve.EditsRequest{Edits: wires}, &er); err != nil || status != http.StatusOK {
			return
		}
	}

	var mp serve.MapResponse
	if status, err = r.do("map", "GET", base+"/map?component=xx", tenant, nil, &mp); err != nil || status != http.StatusOK {
		return
	}
	if r.cfg.screenEvery > 0 && rng.Intn(r.cfg.screenEvery) == 0 {
		r.do("screen", "GET", base+"/screen", tenant, nil, nil)
	}
	if r.cfg.agingEvery > 0 && rng.Intn(r.cfg.agingEvery) == 0 {
		// A bounded, cheap aging run: coarse steps, short horizon.
		r.do("aging", "POST", base+"/aging", tenant, serve.AgingRequest{
			DTSeconds: 1e7, MaxTimeSeconds: 1e9, Top: 5, Workers: 1,
		}, nil)
	}

	if verify && r.mode == "full" {
		r.verifySession(base, tenant, probe, orig)
	}

	if r.cfg.deleteEvery > 0 && rng.Intn(r.cfg.deleteEvery) == 0 {
		r.do("delete", "DELETE", base, tenant, nil, nil)
		return
	}
	r.mu.Lock()
	r.live = append(r.live, created.ID)
	r.mu.Unlock()
}

// verifySession fetches the served xx field and recomputes it from
// scratch with the in-process engine over the original grid bounds;
// ≤1e-9 MPa per point or it is a parity failure.
func (r *loadRun) verifySession(base, tenant string, edited, orig *geom.Placement) {
	var mp serve.MapResponse
	status, err := r.do("map", "GET", base+"/map?component=xx&values=1", tenant, nil, &mp)
	r.mu.Lock()
	r.parityChecked++
	r.mu.Unlock()
	fail := func(format string, args ...any) {
		log.Printf("parity %s: "+format, append([]any{base}, args...)...)
		r.mu.Lock()
		r.parityFailures++
		r.mu.Unlock()
	}
	if err != nil || status != http.StatusOK {
		fail("map fetch failed: status %d err %v", status, err)
		return
	}
	st := material.Baseline(material.BCB)
	grid, err := field.NewGrid(orig.Bounds(5), r.spacing)
	if err != nil {
		fail("grid: %v", err)
		return
	}
	an, err := core.New(st, edited.Clone(), core.Options{})
	if err != nil {
		fail("engine: %v", err)
		return
	}
	want := make([]tensor.Stress, grid.Len())
	if err := an.MapInto(context.Background(), want, grid.Points(), core.ModeFull); err != nil {
		fail("reference eval: %v", err)
		return
	}
	if len(mp.Values) != len(want) {
		fail("served %d values, reference has %d", len(mp.Values), len(want))
		return
	}
	for i, v := range mp.Values {
		if d := math.Abs(v - want[i].XX); d > 1e-9 {
			fail("point %d differs by %g MPa", i, d)
			return
		}
	}
}

// revisit re-reads maps over a deterministic shuffle of live sessions.
func (r *loadRun) revisit(n, workers int) {
	r.mu.Lock()
	ids := append([]string(nil), r.live...)
	r.mu.Unlock()
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids) // worker completion order is not deterministic; the shuffle below is
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	picks := make([]string, n)
	for i := range picks {
		picks[i] = ids[rng.Intn(len(ids))]
	}
	ch := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ch {
				r.do("map", "GET", "/v1/placements/"+id+"/map?component=vm", "revisit", nil, nil)
			}
		}()
	}
	for _, id := range picks {
		ch <- id
	}
	close(ch)
	wg.Wait()
}

// do issues one request, records its latency and outcome under the
// route, and decodes a JSON response into out when given.
func (r *loadRun) do(route, method, path, tenant string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, r.target+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Tsvgate-Tenant", tenant)
	start := time.Now()
	resp, err := r.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		r.rec.observe(route, elapsed, 0, false)
		return 0, err
	}
	defer resp.Body.Close()
	degraded := resp.Header.Get("X-Tsvserve-Degraded") != ""
	r.rec.observe(route, elapsed, resp.StatusCode, degraded)
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, nil
}

// ---- latency recording ----

type recorder struct {
	mu     sync.Mutex
	routes map[string]*routeRec
}

type routeRec struct {
	latencies []time.Duration
	errors    int // transport failures + 5xx
	quota429  int
	degraded  int
	statuses  map[int]int
}

func newRecorder() *recorder {
	return &recorder{routes: make(map[string]*routeRec)}
}

func (r *recorder) observe(route string, d time.Duration, status int, degraded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rr := r.routes[route]
	if rr == nil {
		rr = &routeRec{statuses: make(map[int]int)}
		r.routes[route] = rr
	}
	rr.latencies = append(rr.latencies, d)
	rr.statuses[status]++
	switch {
	case status == 0 || status >= 500:
		rr.errors++
	case status == http.StatusTooManyRequests:
		rr.quota429++
	}
	if degraded {
		rr.degraded++
	}
}

// ---- report ----

// RouteStats is one route's latency/SLO summary.
type RouteStats struct {
	Count    int         `json:"count"`
	Errors   int         `json:"errors"`
	Quota429 int         `json:"quota429,omitempty"`
	Degraded int         `json:"degraded,omitempty"`
	Statuses map[int]int `json:"statuses"`
	P50Ms    float64     `json:"p50Ms"`
	P95Ms    float64     `json:"p95Ms"`
	P99Ms    float64     `json:"p99Ms"`
	MeanMs   float64     `json:"meanMs"`
	MaxMs    float64     `json:"maxMs"`
}

// Report is results/LOAD_slo.json.
type Report struct {
	Target        string                `json:"target"`
	Seed          int64                 `json:"seed"`
	Sessions      int                   `json:"sessions"`
	Workers       int                   `json:"workers"`
	Mode          string                `json:"mode"`
	WallSeconds   float64               `json:"wallSeconds"`
	TotalRequests int                   `json:"totalRequests"`
	TotalErrors   int                   `json:"totalErrors"`
	ThroughputRPS float64               `json:"throughputRps"`
	LiveSessions  int                   `json:"liveSessions"`
	Routes        map[string]RouteStats `json:"routes"`
	Parity        ParityStats           `json:"parity"`
	// Host stamp: records from different hosts are not comparable.
	HostCPUs   int    `json:"hostCpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

// ParityStats summarizes the shadow verification.
type ParityStats struct {
	Checked  int `json:"checked"`
	Failures int `json:"failures"`
}

func (r *loadRun) report(sessions, workers int, wall time.Duration) Report {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	rep := Report{
		Target:      r.target,
		Seed:        r.seed,
		Sessions:    sessions,
		Workers:     workers,
		Mode:        r.mode,
		WallSeconds: wall.Seconds(),
		Routes:      make(map[string]RouteStats, len(r.rec.routes)),
		HostCPUs:    runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
	}
	for route, rr := range r.rec.routes {
		sort.Slice(rr.latencies, func(i, j int) bool { return rr.latencies[i] < rr.latencies[j] })
		rs := RouteStats{
			Count:    len(rr.latencies),
			Errors:   rr.errors,
			Quota429: rr.quota429,
			Degraded: rr.degraded,
			Statuses: rr.statuses,
			P50Ms:    quantileMs(rr.latencies, 0.50),
			P95Ms:    quantileMs(rr.latencies, 0.95),
			P99Ms:    quantileMs(rr.latencies, 0.99),
			MaxMs:    quantileMs(rr.latencies, 1),
		}
		var sum time.Duration
		for _, d := range rr.latencies {
			sum += d
		}
		if rs.Count > 0 {
			rs.MeanMs = float64(sum.Microseconds()) / float64(rs.Count) / 1000
		}
		rep.Routes[route] = rs
		rep.TotalRequests += rs.Count
		rep.TotalErrors += rs.Errors
	}
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.TotalRequests) / wall.Seconds()
	}
	r.mu.Lock()
	rep.LiveSessions = len(r.live)
	rep.Parity = ParityStats{Checked: r.parityChecked, Failures: r.parityFailures}
	r.mu.Unlock()
	return rep
}

// quantileMs returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending latency slice in milliseconds: the smallest sample with at
// least q·n samples at or below it, so p99 of fewer than 100 samples
// is the maximum.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Microseconds()) / 1000
}

func writeReport(path string, rep Report) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
