package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/gateway"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
	"tsvstress/internal/wal"
)

const (
	// fleetRate is the offered open-loop request rate (req/s). Two
	// senders with one connection each can have two requests in flight,
	// so the rate must leave them idle most of the time even when the
	// host is slow: at 400 req/s a host running 2-3× slower than usual
	// pushed them past saturation and latency grew without bound.
	fleetRate = 120.0
	// liveSessions is each replica's MaxLiveSessions. It sits far below
	// the sessions a run creates, so revisit reads hydrate from the WAL.
	liveSessions = 32
)

// fleet is a gateway in front of two WAL-backed serve replicas, all in
// this process, on loopback listeners.
type fleet struct {
	replicas []*serve.Server
	walDirs  []string
	gw       *gateway.Gateway
	gwClient *http.Client
	servers  []*http.Server
	serving  sync.WaitGroup
	base     string
}

// startFleet boots the fleet under dir and returns once the gateway's
// /readyz answers 200. Spans go to the tracer *tr points at, if any.
func startFleet(dir string, tr *atomic.Pointer[tracer], client *http.Client) (*fleet, error) {
	f := &fleet{gwClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadWorkers}}}
	var reps []gateway.Replica
	for _, name := range []string{"ra", "rb"} {
		walDir := filepath.Join(dir, name)
		s := serve.NewServer(serve.Options{MaxSessions: 1 << 20, WALDir: walDir, MaxLiveSessions: liveSessions})
		if _, err := s.Recover(context.Background()); err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, s)
		f.walDirs = append(f.walDirs, walDir)
		url, err := f.listen(traced(tr, "serve", "gateway", s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		reps = append(reps, gateway.Replica{Name: name, URL: url, WALDir: walDir})
	}
	gw, err := gateway.New(gateway.Options{Replicas: reps, Seed: 7, Client: f.gwClient})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	if f.base, err = f.listen(traced(tr, "gateway", "client", gw.Handler())); err != nil {
		f.close()
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get(f.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	f.close()
	return nil, errors.New("fleet: gateway not ready within 30s")
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners, the gateway and the replicas down and waits
// for every serving goroutine to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- { // gateway first
		_ = f.servers[i].Shutdown(ctx) // a drain timeout still closes the listener
	}
	f.serving.Wait()
	if f.gw != nil {
		_ = f.gw.Close(ctx) // stops the health loop; nothing is in flight
	}
	for _, s := range f.replicas {
		_ = s.Close(ctx) // final snapshots; the WAL is scratch
	}
	f.gwClient.CloseIdleConnections()
}

// serveFleet is the serving workload: open-loop traffic through the
// gateway to the replicas. One operation is an edits or map request,
// timed from when it was due.
type serveFleet struct {
	root   string
	seed   int64
	nFleet int
	nSeg   int
	fl     *fleet
	client *http.Client
	tr     atomic.Pointer[tracer]
	// parity holds the served maps of verified sessions until verify.
	parity []parityCase
}

// parityCase is one served map of a verified session.
type parityCase struct {
	plan   sessionPlan
	values []float64
}

// reqRec is one request as the load generator saw it.
type reqRec struct {
	due    time.Duration // from the segment start
	route  string
	lateMs float64 // send time minus due time
	latMs  float64 // completion minus due time
	ok     bool
	traced bool
}

// fleetObs is serveFleet's segment detail.
type fleetObs struct {
	reqs       []reqRec
	editsAcked int
	walBytes   int64
	counters   map[string]int64 // expvar deltas over the segment
	gauges     *sampler
}

func (c *serveFleet) setup(seed int64) (time.Duration, error) {
	c.seed = seed
	if c.client == nil {
		c.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers}}
	}
	c.client.CloseIdleConnections()
	dir := filepath.Join(c.root, "fleet-"+strconv.Itoa(c.nFleet))
	c.nFleet++
	start := time.Now()
	fl, err := startFleet(dir, &c.tr, c.client)
	if err != nil {
		return 0, err
	}
	c.fl = fl
	return time.Since(start), nil
}

// fleetCounters are the expvar counters the traced run reports, as
// map/key paths.
var fleetCounters = [][2]string{
	{"tsvserve", "admission_rejects_total"}, {"tsvserve", "degraded_responses_total"},
	{"tsvserve", "evictions_total"}, {"tsvserve", "hydrations_total"},
	{"tsvgate", "forward_errors_total"}, {"tsvgate", "migrations_total"},
	{"tsvgate", "quota_rejections_total"},
}

func readCounters() map[string]int64 {
	out := map[string]int64{}
	for _, k := range fleetCounters {
		out[k[0]+"."+k[1]] = expvarInt(k[0], k[1])
	}
	return out
}

func expvarInt(mapName, key string) int64 {
	m, ok := expvar.Get(mapName).(*expvar.Map)
	if !ok {
		return 0
	}
	switch v := m.Get(key).(type) {
	case *expvar.Int:
		return v.Value()
	case expvar.Func:
		n, _ := v.Value().(int64)
		return n
	}
	return 0
}

// serveGauges samples the replicas' admission and per-session queues.
func serveGauges() map[string]float64 {
	out := map[string]float64{"admit_waiting": float64(expvarInt("tsvserve", "admit_waiting"))}
	if m, ok := expvar.Get("tsvserve").(*expvar.Map); ok {
		if f, ok := m.Get("session_queue_depth").(expvar.Func); ok {
			depths, _ := f.Value().(map[string]int64)
			for _, d := range depths {
				if float64(d) > out["queue_depth"] {
					out["queue_depth"] = float64(d)
				}
			}
		}
	}
	return out
}

func dirBytes(dirs []string) int64 {
	var n int64
	for _, d := range dirs {
		_ = filepath.Walk(d, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				n += info.Size()
			}
			return nil // files vanish under eviction and deletes
		})
	}
	return n
}

func (c *serveFleet) measure(d time.Duration, tr *tracer) segment {
	sc := planSchedule(c.seed, c.nSeg, d, fleetRate)
	c.nSeg++
	obs := &fleetObs{}
	if tr != nil {
		obs.gauges = startSampler(serveGauges)
	}
	c.tr.Store(tr)
	before, wal0 := readCounters(), dirBytes(c.fl.walDirs)

	start := time.Now().Add(5 * time.Millisecond)
	results := make([][]reqRec, loadWorkers)
	cases := make([][]parityCase, loadWorkers)
	acked := make([]int, loadWorkers)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], cases[w], acked[w] = c.drive(sc, sc.Workers[w], start, w, tr)
		}(w)
	}
	wg.Wait()

	c.tr.Store(nil)
	if obs.gauges != nil {
		obs.gauges.stop()
	}
	after := readCounters()
	obs.counters = map[string]int64{}
	for k, v := range after {
		obs.counters[k] = v - before[k]
	}
	obs.walBytes = dirBytes(c.fl.walDirs) - wal0
	seg := segment{extra: obs}
	for w := range results {
		obs.reqs = append(obs.reqs, results[w]...)
		c.parity = append(c.parity, cases[w]...)
		obs.editsAcked += acked[w]
	}
	// Operations in due order, so blocks of them are stretches of time.
	sort.Slice(obs.reqs, func(i, j int) bool { return obs.reqs[i].due < obs.reqs[j].due })
	for _, r := range obs.reqs {
		seg.attempted++
		if !r.ok {
			seg.failed++
			continue
		}
		if r.route != "edits" && r.route != "map" {
			continue
		}
		if tr != nil && !r.traced {
			seg.plainMs = append(seg.plainMs, r.latMs)
		} else {
			seg.opsMs = append(seg.opsMs, r.latMs)
		}
	}
	return seg
}

// drive runs one sender's steps in due order: it waits for each step's
// due time (or sends at once when behind) and times the request from
// the due time. A step whose session was never created fails.
func (c *serveFleet) drive(sc *schedule, steps []step, start time.Time, w int, tr *tracer) ([]reqRec, []parityCase, int) {
	ids := map[int]string{}
	var recs []reqRec
	var cases []parityCase
	acked := 0
	for n, st := range steps {
		due := start.Add(st.Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		plan := &sc.Sessions[st.Session]
		rec := reqRec{due: st.Due, route: st.Kind.route(), lateMs: msSince(due)}
		id, known := ids[st.Session]
		if st.Kind != stepCreate && !known {
			rec.latMs = rec.lateMs
			recs = append(recs, rec)
			continue
		}
		method, path := "GET", "/v1/placements/"+id
		switch st.Kind {
		case stepCreate:
			method, path = "POST", "/v1/placements"
		case stepEdits:
			method, path = "POST", path+"/edits"
		case stepMap:
			path += "/map?component=xx"
		case stepVerify:
			path += "/map?component=xx&values=1"
		case stepRevisit:
			path += "/map?component=vm"
			if plan.Verify {
				path = "/v1/placements/" + id + "/map?component=xx&values=1"
			}
		case stepScreen:
			path += "/screen"
		case stepAging:
			method, path = "POST", path+"/aging"
		case stepDelete:
			method = "DELETE"
		}
		reqID := ""
		if tr != nil && n%2 == 1 {
			reqID = fmt.Sprintf("%d-%d-%d", c.nSeg, w, n)
		}
		sent := time.Now()
		status, body, err := c.do(method, path, plan.Tenant, st.Kind.route(), reqID, st.Body)
		done := time.Now()
		rec.latMs = ms(done.Sub(due))
		rec.ok = err == nil && status >= 200 && status < 300
		rec.traced = reqID != ""
		if rec.traced {
			tr.add(span{Layer: "client", Route: rec.route, ReqID: reqID, Start: sent, End: done})
		}
		if rec.ok {
			rec.ok = c.accept(st, plan, body, ids, &cases, &acked)
		}
		recs = append(recs, rec)
	}
	return recs, cases, acked
}

// accept checks a 2xx response's content and keeps what later steps
// and the parity check need. It reports whether the response was right.
func (c *serveFleet) accept(st step, plan *sessionPlan, body []byte, ids map[int]string, cases *[]parityCase, acked *int) bool {
	switch st.Kind {
	case stepCreate:
		var cr serve.CreateResponse
		if json.Unmarshal(body, &cr) != nil || cr.ID == "" {
			return false
		}
		ids[st.Session] = cr.ID
	case stepEdits:
		var er serve.EditsResponse
		if json.Unmarshal(body, &er) != nil || er.Applied != st.Edits {
			return false
		}
		*acked += er.Applied
	case stepVerify, stepRevisit:
		if !plan.Verify {
			return true
		}
		var mr serve.MapResponse
		if json.Unmarshal(body, &mr) != nil {
			return false
		}
		*cases = append(*cases, parityCase{plan: *plan, values: mr.Values})
	}
	return true
}

func (c *serveFleet) do(method, path, tenant, route, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.fl.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Tsvgate-Tenant", tenant)
	if reqID != "" {
		req.Header.Set(reqIDHeader, reqID)
		req.Header.Set(routeHeader, route)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// verify recomputes every kept map of a verified session from scratch
// with the in-process engine over the session's original grid, as
// tsvload does: every point within 1e-9 MPa.
func (c *serveFleet) verify() (int, int) {
	checks, bad := 0, 0
	st := chipStructure()
	for _, pc := range c.parity {
		checks++
		g, err := field.NewGrid(pc.plan.Orig.Bounds(5), sessionSpacing)
		if err != nil {
			bad++
			continue
		}
		an, err := core.New(st, pc.plan.Final.Clone(), core.Options{Workers: pinnedWorkers()})
		if err != nil {
			bad++
			continue
		}
		want := make([]tensor.Stress, g.Len())
		if an.MapInto(context.Background(), want, g.Points(), core.ModeFull) != nil || len(want) != len(pc.values) {
			bad++
			continue
		}
		for i, v := range pc.values {
			if d := v - want[i].XX; d > parityTol || d < -parityTol {
				bad++
				break
			}
		}
	}
	c.parity = nil
	return checks, bad
}

func (c *serveFleet) tailQ() float64 { return 0.99 }

func routeLat(seg segment, route string) []float64 {
	var out []float64
	for _, r := range seg.extra.(*fleetObs).reqs {
		if r.ok && r.route == route {
			out = append(out, r.latMs)
		}
	}
	return out
}

func (c *serveFleet) named(seg segment) map[string]recMetric {
	out := map[string]recMetric{}
	for _, route := range []string{"edits", "map"} {
		lat := routeLat(seg, route)
		name := route
		if route == "edits" {
			name = "edit"
		}
		out[name+"_p50_ms"] = recMetric{Value: median(lat), Unit: "ms", Samples: len(lat), Spread: blockSpread(lat, 5, median), Slot: mP50}
		out[name+"_p99_ms"] = recMetric{Value: percentile(lat, 0.99), Unit: "ms", Samples: len(lat), Slot: mTail}
	}
	return out
}

func (c *serveFleet) layers(seg segment, tr *tracer) map[string]layerMetric {
	obs := seg.extra.(*fleetObs)
	lat := "latency_p50_ms,latency_tail_ms@serve_fleet"
	tail := "latency_tail_ms@serve_fleet"
	out := map[string]layerMetric{}
	hop := tr.selfTimes("gateway", "serve")
	out["gateway.hop_ms.p50"] = layerMetric{Value: pctOr0(hop, 0.5), Unit: "ms", Moves: lat}
	out["gateway.hop_ms.p99"] = layerMetric{Value: pctOr0(hop, 0.99), Unit: "ms", Moves: tail}
	out["client.wire_ms.p50"] = layerMetric{Value: pctOr0(tr.selfTimes("client", "gateway"), 0.5), Unit: "ms", Moves: lat}
	for _, route := range []string{"create", "edits", "map", "screen", "aging"} {
		h := durationsMs(tr.byLayer("serve", route))
		out["serve.handler_ms."+route+".p50"] = layerMetric{Value: pctOr0(h, 0.5), Unit: "ms", Moves: lat}
		out["serve.handler_ms."+route+".p99"] = layerMetric{Value: pctOr0(h, 0.99), Unit: "ms", Moves: tail}
	}
	fleetWide := " (tsvserve expvars are process-global: fleet totals)"
	counter := func(name, key, moves string) {
		out[name] = layerMetric{Value: float64(obs.counters[key]), Unit: "count", Moves: moves}
	}
	counter("gateway.forward_errors", "tsvgate.forward_errors_total", "failed@serve_fleet")
	counter("gateway.migrations", "tsvgate.migrations_total", "failed@serve_fleet")
	counter("gateway.quota_rejections", "tsvgate.quota_rejections_total", "failed@serve_fleet")
	counter("serve.admission_rejects", "tsvserve.admission_rejects_total", tail+", failed"+fleetWide)
	counter("serve.degraded", "tsvserve.degraded_responses_total", tail+fleetWide)
	counter("serve.evictions", "tsvserve.evictions_total", tail+fleetWide)
	counter("serve.hydrations", "tsvserve.hydrations_total", tail+fleetWide)
	out["serve.admit_waiting_max"] = layerMetric{Value: obs.gauges.max("admit_waiting"), Unit: "count", Moves: tail + fleetWide}
	out["serve.queue_depth_max"] = layerMetric{Value: obs.gauges.max("queue_depth"), Unit: "count", Moves: tail + fleetWide}
	if obs.editsAcked > 0 {
		out["wal.bytes_per_edit"] = layerMetric{Value: float64(obs.walBytes) / float64(obs.editsAcked), Unit: "bytes", Moves: "latency_p50_ms@serve_fleet"}
	}
	out["wal.append_p50_us"] = layerMetric{Value: c.walAppendUs(), Unit: "us", Moves: "latency_p50_ms@serve_fleet (fsync floor under edits)"}
	var late []float64
	for _, r := range obs.reqs {
		late = append(late, r.lateMs)
	}
	out["runtime.gc_pause_ms"] = layerMetric{Value: seg.gcPauseMs, Unit: "ms", Moves: tail}
	out["runtime.goroutines_max"] = layerMetric{Value: float64(seg.goroutMax), Unit: "count", Moves: tail}
	out["loadgen.late_ms.p99"] = layerMetric{Value: pctOr0(late, 0.99), Unit: "ms", Moves: "run validity, not an optimisation target"}
	return out
}

// walAppendUs times wal.Log.Append with an edit-sized payload on the
// filesystem the replicas journal to.
func (c *serveFleet) walAppendUs() float64 {
	dir := filepath.Join(c.root, "wal-probe")
	defer os.RemoveAll(dir)
	l, err := wal.Create(dir, []byte("{}"))
	if err != nil {
		return 0
	}
	defer l.Close()
	payload := mustJSON(serve.EditsRequest{Edits: []serve.EditWire{{Op: "move", Index: 3, X: 12.5, Y: 31.25}}})
	var us []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err := l.Append(payload); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us)
}

// pctOr0 is percentile with 0 for no samples, so a route the traced
// segment never hit reads as zero instead of NaN.
func pctOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}

func (c *serveFleet) close() {
	if c.fl != nil {
		c.fl.close()
		c.fl = nil
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}
