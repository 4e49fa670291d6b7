package resilience

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, Clock: clock})

	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("new breaker is not closed/allowing")
	}
	b.OnFailure()
	b.OnFailure()
	b.OnSuccess() // resets the consecutive count
	b.OnFailure()
	b.OnFailure()
	if b.State() != StateClosed {
		t.Fatal("breaker tripped before threshold of consecutive failures")
	}
	b.OnFailure()
	if b.State() != StateOpen || b.Opens() != 1 {
		t.Fatalf("state %v opens %d after threshold, want open/1", b.State(), b.Opens())
	}
	if b.Allow() || !b.Tripped() {
		t.Fatal("open breaker admitted a call inside the cool-down")
	}
	// Cool-down elapses: exactly MaxProbes (1) trial call is admitted.
	now = now.Add(time.Second)
	if b.Tripped() {
		t.Fatal("expired open breaker still reports tripped")
	}
	if !b.Allow() {
		t.Fatal("expired open breaker refused the probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state %v after probe admit, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted with MaxProbes=1")
	}
	// Probe fails: re-open, new cool-down.
	b.OnFailure()
	if b.State() != StateOpen || b.Opens() != 2 {
		t.Fatalf("state %v opens %d after failed probe, want open/2", b.State(), b.Opens())
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.OnSuccess()
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
}
