package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/serve"
)

// serve_fleet traffic, following cmd/tsvload's script: many tiny
// sessions, each with a create, edit batches, a map read, occasional
// screen and aging calls and deletes, plus revisit reads of finished
// sessions. Content and arrival times are a pure function of the seed
// and the segment index.
const (
	loadWorkers    = 2    // open-loop senders, one client connection each
	editBatches    = 3    // edit batches per session
	verifyEvery    = 8    // 1-in-N sessions are shadow-verified
	screenEvery    = 4    // 1-in-N sessions run a reliability screen
	agingEvery     = 8    // 1-in-N sessions run a short aging simulation
	deleteEvery    = 16   // 1-in-N sessions are deleted at the end
	revisitShare   = 0.25 // revisit reads per session
	stepGapMs      = 30.0 // mean think time between a session's steps
	sessionSpacing = 3.0  // simulation-grid spacing of a session, µm
)

// stepsPerSession is the mean request count of one session's script,
// which turns the offered request rate into a session arrival rate.
const stepsPerSession = 1 + editBatches + 1 + 1.0/verifyEvery + 1.0/screenEvery + 1.0/agingEvery + 1.0/deleteEvery + revisitShare

type stepKind int

const (
	stepCreate stepKind = iota
	stepEdits
	stepMap
	stepVerify // map read with values, kept for the parity check
	stepScreen
	stepAging
	stepDelete
	stepRevisit
)

// route is the serve route a step exercises.
func (k stepKind) route() string {
	switch k {
	case stepCreate:
		return "create"
	case stepEdits:
		return "edits"
	case stepMap, stepVerify, stepRevisit:
		return "map"
	case stepScreen:
		return "screen"
	case stepAging:
		return "aging"
	}
	return "delete"
}

// step is one scheduled request.
type step struct {
	Due     time.Duration // from the segment start
	Session int           // index into schedule.Sessions
	Kind    stepKind
	Body    []byte // JSON body, pre-encoded
	Edits   int    // edits in an edits step
}

// sessionPlan is one session's content.
type sessionPlan struct {
	Tenant string
	Verify bool
	// Revisitable: the whole script fits in the segment and does not
	// delete the session.
	Revisitable bool
	// Orig is the created placement (the grid bounds); Final the
	// placement after every edit batch, what a map read must show.
	Orig, Final *geom.Placement
	lastDue     time.Duration
}

// schedule is one segment's traffic: per-worker steps in due order.
// Every step of a session, and every revisit of it, sits on the same
// worker, so a sender that runs its steps in order always has the
// session id it needs.
type schedule struct {
	Sessions []sessionPlan
	Workers  [loadWorkers][]step
}

// planSchedule draws the traffic for a segment of length d at the
// offered rate (requests per second).
func planSchedule(seed int64, segIdx int, d time.Duration, rate float64) *schedule {
	arrivals := rand.New(rand.NewSource(seed*1_000_033 + int64(segIdx)))
	sessRate := rate / stepsPerSession
	sc := &schedule{}
	minPitch := 2 * material.Baseline(material.BCB).RPrime
	var t time.Duration
	for {
		t += time.Duration(arrivals.ExpFloat64() / sessRate * float64(time.Second))
		if t >= d {
			break
		}
		i := len(sc.Sessions)
		w := i % loadWorkers
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(segIdx)*1_000_000_007 + int64(i)))
		plan := sessionPlan{Tenant: fmt.Sprintf("t%d", i%4)}
		create, pl := sessionPlacement(rng)
		plan.Orig = pl.Clone()
		due, cut := t, false
		add := func(k stepKind, body any, edits int) {
			cut = cut || due >= d
			if !cut {
				sc.Workers[w] = append(sc.Workers[w], step{Due: due, Session: i, Kind: k, Body: mustJSON(body), Edits: edits})
				plan.lastDue = due
			}
			due += time.Duration(rng.ExpFloat64() * stepGapMs * float64(time.Millisecond))
		}
		add(stepCreate, create, 0)
		for b := 0; b < editBatches; b++ {
			wires := editBatch(rng, pl, minPitch)
			add(stepEdits, serve.EditsRequest{Edits: wires}, len(wires))
		}
		plan.Final = pl
		add(stepMap, nil, 0)
		// The first two sessions of a segment run every optional step,
		// so a short traced segment still times each route.
		all := i < 2
		if rng.Intn(verifyEvery) == 0 || all {
			plan.Verify = true
			add(stepVerify, nil, 0)
		}
		if rng.Intn(screenEvery) == 0 || all {
			add(stepScreen, nil, 0)
		}
		if rng.Intn(agingEvery) == 0 || all {
			add(stepAging, serve.AgingRequest{DTSeconds: 1e7, MaxTimeSeconds: 1e9, Top: 5, Workers: 1}, 0)
		}
		deleted := rng.Intn(deleteEvery) == 0 && !plan.Verify
		if deleted {
			add(stepDelete, nil, 0)
		}
		plan.Revisitable = !deleted && !cut
		sc.Sessions = append(sc.Sessions, plan)
	}

	// Revisit reads of sessions whose script has ended: cold sessions,
	// which the replicas' live-session cap has mostly evicted to the WAL.
	nRevisit := int(revisitShare * float64(len(sc.Sessions)))
	for k := 0; k < nRevisit; k++ {
		due := time.Duration(arrivals.Float64() * float64(d))
		var done []int
		for i, s := range sc.Sessions {
			if s.Revisitable && s.lastDue < due {
				done = append(done, i)
			}
		}
		if len(done) == 0 {
			continue
		}
		i := done[arrivals.Intn(len(done))]
		w := i % loadWorkers
		sc.Workers[w] = append(sc.Workers[w], step{Due: due, Session: i, Kind: stepRevisit})
	}
	for w := range sc.Workers {
		steps := sc.Workers[w]
		sort.SliceStable(steps, func(a, b int) bool { return steps[a].Due < steps[b].Due })
	}
	return sc
}

// sessionPlacement draws a session's initial 2×2 to 3×3 lattice at
// 24 µm pitch with ±4 µm jitter, as tsvload does.
func sessionPlacement(rng *rand.Rand) (serve.CreateRequest, *geom.Placement) {
	req := serve.CreateRequest{Spacing: sessionSpacing, Margin: 5, Mode: "full"}
	pl := &geom.Placement{}
	n := 2 + rng.Intn(2)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x, y := float64(24*i)+rng.Float64()*8-4, float64(24*j)+rng.Float64()*8-4
			req.TSVs = append(req.TSVs, serve.TSVWire{X: x, Y: y})
			pl.TSVs = append(pl.TSVs, geom.TSV{Center: geom.Pt(x, y)})
		}
	}
	return req, pl
}

// editBatch draws 1–3 edits valid in sequence against mirror and applies
// them to it.
func editBatch(rng *rand.Rand, mirror *geom.Placement, minPitch float64) []serve.EditWire {
	n := 1 + rng.Intn(3)
	var wires []serve.EditWire
	for len(wires) < n {
		var ed geom.Edit
		var ew serve.EditWire
		switch op := rng.Intn(3); {
		case op == 1 && mirror.Len() > 4:
			idx := rng.Intn(mirror.Len())
			ed, ew = geom.Edit{Op: geom.EditRemove, Index: idx}, serve.EditWire{Op: "remove", Index: idx}
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
		if ed.Apply(mirror, minPitch) == nil {
			wires = append(wires, ew)
		}
	}
	return wires
}

func mustJSON(v any) []byte {
	if v == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain data
	}
	return b
}
