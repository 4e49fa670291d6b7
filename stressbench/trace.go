package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one call into a layer, timed from the benchmark's side of the
// layer's public boundary. Spans of one request share ReqID; Parent names
// the layer that caused the call ("" for a root).
type span struct {
	Layer  string
	Route  string
	ReqID  string
	Parent string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the traced segment ends. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byLayer returns the spans of one layer, optionally of one route.
func (t *tracer) byLayer(layer, route string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && (route == "" || s.Route == route) {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span of layer, its duration minus the
// duration of its direct child spans (matched by ReqID), in ms. A span
// whose child is missing is skipped: its self time is unknown.
func (t *tracer) selfTimes(layer, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Layer == child && s.Parent == layer {
			kids[s.ReqID] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Layer != layer {
			continue
		}
		if k, ok := kids[s.ReqID]; ok {
			out = append(out, ms(s.dur()-k))
		}
	}
	return out
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// reqIDHeader carries the benchmark's request id through the gateway,
// which clones request headers onto the forwarded request.
const reqIDHeader = "X-Stressbench-Request"

// traced wraps a layer's HTTP handler so that, while *tr is set, each
// request carrying the benchmark's request id gets a span for the layer.
func traced(tr *atomic.Pointer[tracer], layer, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		id := ""
		if t != nil {
			id = r.Header.Get(reqIDHeader)
		}
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Route: r.Header.Get(routeHeader), ReqID: id, Parent: parent, Start: start, End: time.Now()})
	})
}

// routeHeader names the serve route of a benchmark request so the
// layer wrappers can file spans by route without parsing paths.
const routeHeader = "X-Stressbench-Route"

// alternate picks, for operation k of a segment, the tracer it runs
// under and the latency list it lands in: in a traced segment odd
// operations are traced, even ones are not.
func alternate(tr *tracer, k int, seg *segment) (*tracer, *[]float64) {
	if tr != nil && k%2 == 0 {
		return nil, &seg.plainMs
	}
	return tr, &seg.opsMs
}
