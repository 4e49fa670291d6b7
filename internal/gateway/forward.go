package gateway

// Request forwarding and session mobility. The gateway is a
// deliberately thin proxy: it streams the replica's response through
// verbatim — status, headers (Retry-After, X-Tsvserve-Degraded, ...)
// and body — so a client behind the gateway sees exactly the replica
// contract DESIGN.md documents. The one place it intervenes is a 404
// from the ring owner: that triggers the migration protocol, because
// "the owner doesn't know the session" almost always means the ring
// changed (a replica died or rejoined) and the session's WAL lives
// somewhere else.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"

	"tsvstress/internal/wal"
)

// maxForwardBody caps a buffered request body; bodies are buffered so
// a request can be replayed after a migration.
const maxForwardBody = wal.MaxBundleBytes

// Handler returns the gateway's routing handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.HandleFunc("POST /v1/placements", g.guard("create", g.handleCreate))
	mux.HandleFunc("GET /v1/placements", g.guard("list", g.handleList))
	mux.HandleFunc("/v1/placements/{id}", g.guard("session", g.handleSession))
	mux.HandleFunc("/v1/placements/{id}/{rest...}", g.guard("session", g.handleSession))
	return mux
}

// tenantOf extracts the request's tenant (quota and metrics key).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tsvgate-Tenant"); t != "" {
		return t
	}
	return "default"
}

// validTenant reports whether t may key quotas and metrics: at most
// maxTenantLen bytes of [A-Za-z0-9._-].
func validTenant(t string) bool {
	if len(t) > maxTenantLen {
		return false
	}
	for i := 0; i < len(t); i++ {
		switch c := t[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// guard wraps every routed handler with drain refusal, in-flight
// accounting and the per-tenant quota.
func (g *Gateway) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errDraining.Error())
			return
		}
		g.inflight.Add(1)
		defer g.inflight.Done()
		tenant := tenantOf(r)
		if !validTenant(tenant) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"X-Tsvgate-Tenant must be 1-%d bytes of [A-Za-z0-9._-]", maxTenantLen))
			return
		}
		tenant = tracked.key(tenant)
		if !g.quotas.allow(tenant) {
			metricQuotaRejections.Add(1)
			metricTenantRejections.Add(tenant, 1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q is over its request quota", tenant))
			return
		}
		metricTenantRouted.Add(tenant, 1)
		h(w, r)
	}
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "replicas": len(g.reps), "alive": g.numAlive(),
	})
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	alive := g.numAlive()
	switch {
	case g.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case alive == 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no-replicas"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "alive": alive})
	}
}

// handleCreate mints a bounded-load session id and forwards the create
// to its owner. The replica honors the minted id via the
// X-Tsvgate-Session header, so the returned session id routes back to
// the same replica on every subsequent request.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	id, st := g.mintID(tenantOf(r))
	if st == nil {
		noReplicas(w)
		return
	}
	r.Header.Set("X-Tsvgate-Session", id)
	resp, err := g.forward(r, st, body)
	if err != nil {
		g.forwardError(w, st, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		st.sessions.Add(1)
		metricMinted.Add(1)
	}
	copyResponse(w, resp)
}

// handleList merges the placement lists of every live replica.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	merged := struct {
		Placements []any `json:"placements"`
	}{Placements: []any{}}
	alive := g.aliveFn()
	for name, st := range g.reps {
		if !alive(name) {
			continue
		}
		resp, err := g.forward(r, st, nil)
		if err != nil {
			continue // a flapping replica must not fail the whole list
		}
		var part struct {
			Placements []any `json:"placements"`
		}
		err = decodeJSON(resp.Body, &part)
		resp.Body.Close()
		if err == nil {
			merged.Placements = append(merged.Placements, part.Placements...)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

// handleSession routes a session-scoped request to the ring owner,
// migrating the session onto it first when it lives elsewhere.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := bufferBody(w, r)
	if !ok {
		return
	}
	st := g.owner(id)
	if st == nil {
		noReplicas(w)
		return
	}
	resp, err := g.forward(r, st, body)
	if err != nil {
		g.forwardError(w, st, err)
		return
	}
	if resp.StatusCode != http.StatusNotFound || strings.HasSuffix(r.URL.Path, "/import") {
		defer resp.Body.Close()
		copyResponse(w, resp)
		return
	}
	resp.Body.Close()
	// The owner does not know the session: find its WAL elsewhere in
	// the fleet and ship it here, then replay the original request.
	if err := g.migrate(r.Context(), id, st); err != nil {
		if errors.Is(err, errSessionNotFound) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown placement %q", id))
			return
		}
		metricMigrationFailures.Add(1)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("placement %q: migration to its owner failed: %v", id, err))
		return
	}
	resp, err = g.forward(r, st, body)
	if err != nil {
		g.forwardError(w, st, err)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// forward replays the incoming request against one replica, preserving
// method, path, query, headers and deadline. The caller owns the
// response body.
func (g *Gateway) forward(r *http.Request, st *replicaState, body []byte) (*http.Response, error) {
	if !st.breaker.Allow() {
		return nil, fmt.Errorf("replica %s: circuit breaker open", st.rep.Name)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, st.rep.URL+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	resp, err := g.opt.Client.Do(req)
	if err != nil {
		st.breaker.OnFailure()
		st.errors.Add(1)
		metricForwardErrors.Add(1)
		return nil, err
	}
	st.breaker.OnSuccess()
	st.routed.Add(1)
	metricRouted.Add(1)
	return resp, nil
}

func (g *Gateway) forwardError(w http.ResponseWriter, st *replicaState, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusBadGateway,
		fmt.Sprintf("replica %s unreachable: %v", st.rep.Name, err))
}

var errSessionNotFound = errors.New("session not found anywhere in the fleet")

// migrate ships session id onto dst from wherever its WAL lives:
// a fenced export from another live replica, or the WAL directory a
// dead replica left behind. Migrations of one id are serialized;
// latecomers wait for the winner and succeed vacuously.
func (g *Gateway) migrate(ctx context.Context, id string, dst *replicaState) error {
	g.mu.Lock()
	if ch, busy := g.migrating[id]; busy {
		g.mu.Unlock()
		select {
		case <-ch:
			return nil // the winner migrated (or it truly is gone; the retry will 404)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ch := make(chan struct{})
	g.migrating[id] = ch
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.migrating, id)
		close(ch)
		g.mu.Unlock()
	}()

	// Live donors first: a fenced export is strictly safer than a disk
	// read because the donor stops computing the moment it exports.
	alive := g.aliveFn()
	for name, src := range g.reps {
		if src == dst || !alive(name) {
			continue
		}
		raw, found, err := g.fetchExport(ctx, src, id)
		if err != nil || !found {
			continue
		}
		if err := g.importTo(ctx, dst, id, raw); err != nil {
			return fmt.Errorf("import on %s: %w", dst.rep.Name, err)
		}
		g.deleteFrom(ctx, src, id)
		src.sessions.Add(-1)
		dst.sessions.Add(1)
		metricMigrations.Add(1)
		return nil
	}

	// Dead donors: lift the session straight out of the WAL directory
	// the crashed replica left behind, then delete the source copy so a
	// rejoining replica cannot resurrect a stale twin.
	for name, src := range g.reps {
		if src == dst || alive(name) || src.rep.WALDir == "" {
			continue
		}
		dir := filepath.Join(src.rep.WALDir, id)
		b, err := wal.Export(dir)
		if err != nil {
			continue
		}
		if err := g.importTo(ctx, dst, id, wal.EncodeBundle(b)); err != nil {
			return fmt.Errorf("import rescued WAL on %s: %w", dst.rep.Name, err)
		}
		if err := wal.Remove(dir); err == nil {
			metricEvictionsDead.Add(1)
		}
		dst.sessions.Add(1)
		metricMigrations.Add(1)
		return nil
	}
	return errSessionNotFound
}

// fetchExport pulls a fenced export from a live donor. found=false
// means the donor does not have the session (keep looking); an error
// means the donor is misbehaving (also keep looking — migration probes
// must tolerate a dying donor).
func (g *Gateway) fetchExport(ctx context.Context, src *replicaState, id string) (raw []byte, found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		src.rep.URL+"/v1/placements/"+id+"/export?fence=1", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := g.opt.Client.Do(req)
	if err != nil {
		st := src
		st.breaker.OnFailure()
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, nil
	}
	raw, err = io.ReadAll(io.LimitReader(resp.Body, wal.MaxBundleBytes+1))
	if err != nil || len(raw) > wal.MaxBundleBytes {
		return nil, false, fmt.Errorf("export of %q from %s: oversized or truncated", id, src.rep.Name)
	}
	return raw, true, nil
}

// importTo lands an encoded bundle on the destination replica. A 409
// (already there) counts as success: a concurrent path beat us to it.
func (g *Gateway) importTo(ctx context.Context, dst *replicaState, id string, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		dst.rep.URL+"/v1/placements/"+id+"/import", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := g.opt.Client.Do(req)
	if err != nil {
		dst.breaker.OnFailure()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	return fmt.Errorf("status %d: %s", resp.StatusCode, msg)
}

// deleteFrom releases the donor's fenced copy. Best effort: the fence
// already stops the donor from serving stale compute, so a failed
// delete costs memory, not correctness.
func (g *Gateway) deleteFrom(ctx context.Context, src *replicaState, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		src.rep.URL+"/v1/placements/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := g.opt.Client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// bufferBody reads the request body into memory so it can be replayed
// after a migration. Returns ok=false after writing the error.
func bufferBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil || r.Body == http.NoBody {
		return nil, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxForwardBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading request body: "+err.Error())
		return nil, false
	}
	return body, true
}

func noReplicas(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no live replicas")
}

// copyResponse streams a replica response through verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
