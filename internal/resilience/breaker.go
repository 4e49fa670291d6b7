// Package resilience holds the circuit breaker the gateway tier keys
// its replica routing on: a replica whose forwards or readiness probes
// keep failing is taken out of the routing view, probed again after a
// cool-down, and restored on the first success. It is stdlib-only and
// takes an injectable clock, so tests drive the state machine without
// sleeping. DESIGN.md §18 documents the policy.
package resilience

import (
	"sync"
	"time"
)

// State is a breaker's position.
type State int32

const (
	// StateClosed: traffic flows; consecutive failures are counted.
	StateClosed State = iota
	// StateOpen: traffic is refused until OpenFor has elapsed.
	StateOpen
	// StateHalfOpen: up to MaxProbes trial calls are admitted; the
	// first success closes the breaker, any failure re-opens it.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker open (default 5).
	FailureThreshold int
	// OpenFor is the cool-down an open breaker waits before admitting
	// probes (default 2s).
	OpenFor time.Duration
	// MaxProbes bounds concurrently admitted half-open trial calls
	// (default 1).
	MaxProbes int
	// Clock overrides time.Now (tests; nil uses the real clock).
	Clock func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a classic closed/open/half-open circuit breaker. Callers
// ask Allow before work and report OnSuccess/OnFailure after; while
// open, Allow refuses until OpenFor elapses, then admits MaxProbes
// trial calls whose outcomes close or re-open the circuit. Safe for
// concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    State
	fails    int // consecutive failures while closed
	openedAt time.Time
	probes   int // admitted, unresolved half-open probes
	opens    int64
}

// NewBreaker builds a closed breaker (zero-value config → defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed, transitioning an expired
// open breaker to half-open and accounting the admitted probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = StateHalfOpen
		b.probes = 1
		return true
	default: // half-open
		if b.probes >= b.cfg.MaxProbes {
			return false
		}
		b.probes++
		return true
	}
}

// OnSuccess records a successful call: it closes a half-open breaker
// and clears the consecutive-failure count.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == StateHalfOpen {
		b.state = StateClosed
		b.probes = 0
	}
}

// OnFailure records a failed call: it trips a closed breaker once the
// threshold is reached and re-opens a half-open one immediately. A
// failure reported while already open (a straggler from before the
// trip) is ignored.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.tripLocked()
		}
	case StateHalfOpen:
		b.tripLocked()
	}
}

// tripLocked opens the circuit; caller holds mu.
func (b *Breaker) tripLocked() {
	b.state = StateOpen
	b.openedAt = b.cfg.Clock()
	b.fails = 0
	b.probes = 0
	b.opens++
}

// State returns the breaker's raw position without side effects (an
// expired open breaker still reports open until Allow probes it).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Tripped reports whether the breaker is open and still cooling down —
// the non-mutating check schedulers use to skip an endpoint without
// consuming a half-open probe slot.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateOpen && b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
