package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
)

// replicaFixture is one live tsvserve instance under test.
type replicaFixture struct {
	name   string
	walDir string
	srv    *serve.Server
	ts     *httptest.Server
}

// startReplica boots a WAL-backed tsvserve replica.
func startReplica(t *testing.T, name string) *replicaFixture {
	t.Helper()
	dir := t.TempDir()
	srv := serve.NewServer(serve.Options{WALDir: dir, SnapshotEvery: 2})
	if _, err := srv.Recover(context.Background()); err != nil {
		t.Fatalf("replica %s recover: %v", name, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &replicaFixture{name: name, walDir: dir, srv: srv, ts: ts}
}

// sigkill simulates a hard kill: the listener and every live
// connection die, but the serve.Server is never Closed — no final
// snapshot, no graceful drain. Because the WAL syncs before every
// acknowledgment, the on-disk state is exactly what a SIGKILL would
// leave behind.
func (f *replicaFixture) sigkill() {
	f.ts.Listener.Close()
	f.ts.CloseClientConnections()
}

// newGateway builds a gateway over the fixtures with a fast probe
// cadence and registers cleanup.
func newGateway(t *testing.T, opt Options, fixtures ...*replicaFixture) *Gateway {
	t.Helper()
	for _, f := range fixtures {
		opt.Replicas = append(opt.Replicas, Replica{Name: f.name, URL: f.ts.URL, WALDir: f.walDir})
	}
	if opt.HealthEvery == 0 {
		opt.HealthEvery = 25 * time.Millisecond
	}
	if opt.Seed == 0 {
		opt.Seed = 7
	}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = g.Close(ctx)
	})
	return g
}

// waitAlive polls until the gateway's liveness view of a replica
// matches want.
func waitAlive(t *testing.T, g *Gateway, name string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.aliveFn()(name) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica %s never became alive=%v", name, want)
}

// ---- placement + parity helpers (4x4 lattice, cheap under -race) ----

func testCreateBody() map[string]any {
	var tsvs []map[string]float64
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			tsvs = append(tsvs, map[string]float64{"x": float64(24 * i), "y": float64(24 * j)})
		}
	}
	return map[string]any{"tsvs": tsvs, "spacing": 3, "margin": 5}
}

func mirrorPlacement() *geom.Placement {
	pl := &geom.Placement{}
	n := 0
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			pl.TSVs = append(pl.TSVs, geom.TSV{Center: geom.Pt(float64(24*i), float64(24*j)), Name: "V" + strconv.Itoa(n)})
			n++
		}
	}
	return pl
}

func doJSON(t *testing.T, c *http.Client, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// applyEdits drives a fixed edit history through the gateway and
// mirrors it locally.
func applyEdits(t *testing.T, c *http.Client, base string, mirror *geom.Placement) {
	t.Helper()
	minPitch := 2 * material.Baseline(material.BCB).RPrime
	batches := [][]map[string]any{
		{{"op": "move", "index": 0, "x": 3.0, "y": 2.0}},
		{{"op": "add", "x": 90.0, "y": 90.0}, {"op": "remove", "index": 5}},
	}
	typed := [][]geom.Edit{
		{{Op: geom.EditMove, Index: 0, TSV: geom.TSV{Center: geom.Pt(3, 2)}}},
		{{Op: geom.EditAdd, TSV: geom.TSV{Center: geom.Pt(90, 90)}}, {Op: geom.EditRemove, Index: 5}},
	}
	for bi, batch := range batches {
		for _, ed := range typed[bi] {
			if err := ed.Apply(mirror, minPitch); err != nil {
				t.Fatalf("mirror batch %d: %v", bi, err)
			}
		}
		if resp := doJSON(t, c, "POST", base+"/edits", map[string]any{"edits": batch}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("edits batch %d: status %d", bi, resp.StatusCode)
		}
	}
}

// checkParity compares the gateway-served map against a from-scratch
// full-mode evaluation of the mirror, pinning ≤ 1e-9 MPa agreement.
func checkParity(t *testing.T, c *http.Client, base string, mirror *geom.Placement) {
	t.Helper()
	var mp struct {
		Values []float64 `json:"values"`
	}
	if resp := doJSON(t, c, "GET", base+"/map?component=xx&values=1", nil, &mp); resp.StatusCode != http.StatusOK {
		t.Fatalf("map: status %d", resp.StatusCode)
	}
	st := material.Baseline(material.BCB)
	grid, err := field.NewGrid(mirrorPlacement().Bounds(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.New(st, mirror.Clone(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]tensor.Stress, grid.Len())
	if err := an.MapInto(context.Background(), want, grid.Points(), core.ModeFull); err != nil {
		t.Fatal(err)
	}
	if len(mp.Values) != len(want) {
		t.Fatalf("served %d values, want %d", len(mp.Values), len(want))
	}
	for i, v := range mp.Values {
		if d := math.Abs(v - want[i].XX); d > 1e-9 {
			t.Fatalf("migrated map differs from never-moved reference by %g MPa at point %d", d, i)
		}
	}
}

// createVia creates a placement through the gateway and returns its id.
func createVia(t *testing.T, c *http.Client, gwURL string) string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if resp := doJSON(t, c, "POST", gwURL+"/v1/placements", testCreateBody(), &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create via gateway: status %d", resp.StatusCode)
	}
	if len(created.ID) < 3 || created.ID[:2] != "s-" {
		t.Fatalf("gateway-minted id %q does not carry the s- prefix", created.ID)
	}
	return created.ID
}

// TestGatewayRoutesAndMints: create/edit/map through the gateway over
// two replicas; ids are gateway-minted, routing is stable, the merged
// list sees every session.
func TestGatewayRoutesAndMints(t *testing.T) {
	a, b := startReplica(t, "ra"), startReplica(t, "rb")
	g := newGateway(t, Options{}, a, b)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	c := gw.Client()

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		ids = append(ids, createVia(t, c, gw.URL))
	}
	// Both replicas got some share (6 mints over 2 replicas; the
	// bounded-load cap makes an all-on-one split impossible).
	if a.srv.NumSessions() == 0 || b.srv.NumSessions() == 0 {
		t.Fatalf("lopsided mint: ra=%d rb=%d", a.srv.NumSessions(), b.srv.NumSessions())
	}
	if a.srv.NumSessions()+b.srv.NumSessions() != 6 {
		t.Fatalf("fleet holds %d+%d sessions, want 6", a.srv.NumSessions(), b.srv.NumSessions())
	}

	mirror := mirrorPlacement()
	applyEdits(t, c, gw.URL+"/v1/placements/"+ids[0], mirror)
	checkParity(t, c, gw.URL+"/v1/placements/"+ids[0], mirror)

	var list struct {
		Placements []map[string]any `json:"placements"`
	}
	doJSON(t, c, "GET", gw.URL+"/v1/placements", nil, &list)
	if len(list.Placements) != 6 {
		t.Fatalf("merged list has %d placements, want 6", len(list.Placements))
	}

	// Deleting through the gateway reaches the owning replica.
	if resp := doJSON(t, c, "DELETE", gw.URL+"/v1/placements/"+ids[1], nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete via gateway: status %d", resp.StatusCode)
	}
	if a.srv.NumSessions()+b.srv.NumSessions() != 5 {
		t.Fatalf("fleet holds %d sessions after delete, want 5", a.srv.NumSessions()+b.srv.NumSessions())
	}
}

// TestGatewayLiveMigrationParity: a session living on the wrong
// replica (as after a ring change) is fenced, exported, imported on
// its ring owner and deleted at the donor — transparently, inside one
// client request, with ≤1e-9 MPa parity.
func TestGatewayLiveMigrationParity(t *testing.T) {
	a, b := startReplica(t, "ra"), startReplica(t, "rb")
	g := newGateway(t, Options{}, a, b)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	c := gw.Client()

	// Choose an id the ring assigns to rb, then plant the session on ra
	// — the state a ring change leaves behind.
	id := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("s-planted-%d", i)
		if g.ring.Owner(cand, nil) == "rb" {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no candidate id maps to rb")
	}
	body, _ := json.Marshal(testCreateBody())
	req, _ := http.NewRequest("POST", a.ts.URL+"/v1/placements", bytes.NewReader(body))
	req.Header.Set("X-Tsvgate-Session", id)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plant on ra: status %d", resp.StatusCode)
	}
	mirror := mirrorPlacement()
	applyEdits(t, c, a.ts.URL+"/v1/placements/"+id, mirror)

	before := migrationsCount()
	// One gateway request both migrates and serves.
	checkParity(t, c, gw.URL+"/v1/placements/"+id, mirror)
	if migrationsCount() != before+1 {
		t.Fatalf("migrations counter did not advance")
	}
	// The donor released its copy; the owner serves it now.
	if n := a.srv.NumSessions(); n != 0 {
		t.Fatalf("donor still holds %d sessions", n)
	}
	if n := b.srv.NumSessions(); n != 1 {
		t.Fatalf("owner holds %d sessions, want 1", n)
	}
	// Follow-up requests hit the new owner directly — no second migration.
	checkParity(t, c, gw.URL+"/v1/placements/"+id, mirror)
	if migrationsCount() != before+1 {
		t.Fatal("a second migration ran for an already-migrated session")
	}
}

func migrationsCount() int64 { return metricMigrations.Value() }

// TestGatewayDeadOwnerRescueParity is the SIGKILL chaos variant: the
// replica owning a session is hard-killed; the next request routes to
// the survivor, which rescues the session from the dead replica's WAL
// directory and serves it with full parity. The dead copy is removed
// so a rejoining replica cannot resurrect a stale twin.
func TestGatewayDeadOwnerRescueParity(t *testing.T) {
	a, b := startReplica(t, "ra"), startReplica(t, "rb")
	g := newGateway(t, Options{}, a, b)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	c := gw.Client()
	waitAlive(t, g, "ra", true)
	waitAlive(t, g, "rb", true)

	id := createVia(t, c, gw.URL)
	mirror := mirrorPlacement()
	applyEdits(t, c, gw.URL+"/v1/placements/"+id, mirror)

	ownerName := g.ring.Owner(id, nil)
	owner, survivor := a, b
	if ownerName == "rb" {
		owner, survivor = b, a
	}
	if owner.srv.NumSessions() != 1 {
		t.Fatalf("session not on its ring owner %s", ownerName)
	}

	owner.sigkill()
	waitAlive(t, g, owner.name, false)

	// The session resurfaces on the survivor within one request.
	checkParity(t, c, gw.URL+"/v1/placements/"+id, mirror)
	if n := survivor.srv.NumSessions(); n != 1 {
		t.Fatalf("survivor holds %d sessions, want 1", n)
	}
	// The dead owner's WAL copy is gone: a restart on the same
	// directory recovers nothing, so no stale twin can come back.
	restarted := serve.NewServer(serve.Options{WALDir: owner.walDir})
	if n, err := restarted.Recover(context.Background()); err != nil || n != 0 {
		t.Fatalf("dead owner's WAL still recovers %d sessions (err=%v)", n, err)
	}
}

// TestGatewayQuota: a tenant over its bucket gets 429 + Retry-After;
// other tenants are unaffected.
func TestGatewayQuota(t *testing.T) {
	a := startReplica(t, "ra")
	g := newGateway(t, Options{QuotaRate: 0.001, QuotaBurst: 2}, a)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	c := gw.Client()

	status := func(tenant string) int {
		req, _ := http.NewRequest("GET", gw.URL+"/v1/placements", nil)
		req.Header.Set("X-Tsvgate-Tenant", tenant)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if s := status("hog"); s != http.StatusOK {
		t.Fatalf("first request: %d", s)
	}
	if s := status("hog"); s != http.StatusOK {
		t.Fatalf("second request: %d", s)
	}
	if s := status("hog"); s != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", s)
	}
	if s := status("polite"); s != http.StatusOK {
		t.Fatalf("other tenant collateral damage: %d", s)
	}
}

// TestGatewayDrain: Close refuses new work, waits out in-flight
// requests, and leaves no goroutines behind. The gateway handler runs
// in-process (no httptest listener of its own) so the goroutine count
// isolates what the gateway spawned.
func TestGatewayDrain(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"placements":[]}`))
	}))
	defer slow.Close()
	client := &http.Client{}

	baseline := runtime.NumGoroutine()
	g, err := New(Options{
		Replicas:    []Replica{{Name: "slow", URL: slow.URL}},
		HealthEvery: 20 * time.Millisecond,
		Seed:        7,
		Client:      client,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	// Park one request inside the gateway.
	got := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/placements", nil))
		got <- rec.Code
	}()
	<-entered

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- g.Close(ctx)
	}()
	// While draining: new requests are refused with 503. (Close flips
	// the flag before blocking, so once it is visible the refusal is
	// deterministic.)
	deadline := time.Now().Add(2 * time.Second)
	for !g.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Close never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/placements", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", rec.Code)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned before the in-flight request finished: %v", err)
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s := <-got; s != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", s)
	}
	// No goroutine leak: the health loop and drain helper are gone
	// (transport keep-alive conns are flushed before counting).
	leakDeadline := time.Now().Add(3 * time.Second)
	for {
		client.CloseIdleConnections()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines: baseline %d, after drain %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestGatewayNoReplicas: with the whole fleet down the gateway answers
// 503 with a retry hint rather than hanging.
func TestGatewayNoReplicas(t *testing.T) {
	dead := startReplica(t, "ra")
	g := newGateway(t, Options{}, dead)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	waitAlive(t, g, "ra", true)
	dead.sigkill()
	waitAlive(t, g, "ra", false)

	resp := doJSON(t, gw.Client(), "GET", gw.URL+"/v1/placements/s-x/map", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fleet-down request: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fleet-down 503 without Retry-After")
	}
	if resp := doJSON(t, gw.Client(), "GET", gw.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz over a dead fleet: %d, want 503", resp.StatusCode)
	}
}

// TestGatewayTenantBounds: a client minting a fresh X-Tsvgate-Tenant
// per request cannot grow the per-tenant expvar maps or the quota
// buckets past maxTenants plus the overflow key, and malformed tenants
// are refused with 400 before they key anything.
func TestGatewayTenantBounds(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"placements":[]}`))
	}))
	defer stub.Close()
	g, err := New(Options{
		Replicas:   []Replica{{Name: "stub", URL: stub.URL}},
		Seed:       7,
		QuotaRate:  1e-6,
		QuotaBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close(context.Background())
	h := g.Handler()
	status := func(tenant string) int {
		req := httptest.NewRequest("GET", "/v1/placements", nil)
		req.Header.Set("X-Tsvgate-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	for _, bad := range []string{strings.Repeat("a", maxTenantLen+1), "a b", "t/1", "tenanté"} {
		if s := status(bad); s != http.StatusBadRequest {
			t.Errorf("tenant %q: %d, want 400", bad, s)
		}
	}
	if s := status(strings.Repeat("a", maxTenantLen)); s != http.StatusOK {
		t.Errorf("%d-byte tenant: %d, want 200", maxTenantLen, s)
	}

	// Each tenant's first request spends its one token and is routed;
	// the second is over quota.
	const n = 10_000
	for i := 0; i < n; i++ {
		tenant := "t-" + strconv.Itoa(i)
		status(tenant)
		if s := status(tenant); s != http.StatusTooManyRequests {
			t.Fatalf("tenant %s second request: %d, want 429", tenant, s)
		}
	}
	size := func(m *expvar.Map) int {
		k := 0
		m.Do(func(expvar.KeyValue) { k++ })
		return k
	}
	g.quotas.mu.Lock()
	buckets := len(g.quotas.buckets)
	g.quotas.mu.Unlock()
	for name, got := range map[string]int{
		"tenant_routed_total":           size(metricTenantRouted),
		"tenant_quota_rejections_total": size(metricTenantRejections),
		"quota buckets":                 buckets,
	} {
		if got > maxTenants+1 {
			t.Errorf("%s holds %d tenants after %d distinct ones, want at most %d", name, got, n, maxTenants+1)
		}
	}
	if metricTenantRejections.Get(overflowTenant) == nil {
		t.Errorf("no %s row after %d distinct tenants", overflowTenant, n)
	}
}
