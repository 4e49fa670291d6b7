package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := planSchedule(42, 0, 3*time.Second, fleetRate)
	b := planSchedule(42, 0, 3*time.Second, fleetRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	c := planSchedule(43, 0, 3*time.Second, fleetRate)
	if reflect.DeepEqual(a.Workers, c.Workers) {
		t.Fatal("schedules from different seeds are identical")
	}
	d := planSchedule(42, 1, 3*time.Second, fleetRate)
	if reflect.DeepEqual(a.Workers, d.Workers) {
		t.Fatal("segments of one run repeat the same traffic")
	}
}

func TestScheduleShape(t *testing.T) {
	const secs = 10
	sc := planSchedule(7, 0, secs*time.Second, fleetRate)
	n := 0
	for w, steps := range sc.Workers {
		n += len(steps)
		created := map[int]bool{}
		for i, st := range steps {
			if i > 0 && st.Due < steps[i-1].Due {
				t.Fatalf("worker %d: step %d due before its predecessor", w, i)
			}
			if st.Due < 0 || st.Due >= secs*time.Second {
				t.Fatalf("worker %d: step due at %v, outside the segment", w, st.Due)
			}
			if st.Session%loadWorkers != w {
				t.Fatalf("worker %d runs a step of session %d", w, st.Session)
			}
			if st.Kind == stepCreate {
				created[st.Session] = true
			} else if !created[st.Session] {
				t.Fatalf("worker %d: %v step of session %d before its create", w, st.Kind.route(), st.Session)
			}
			if st.Kind == stepRevisit && !sc.Sessions[st.Session].Revisitable {
				t.Fatalf("revisit of session %d, which is deleted or cut", st.Session)
			}
			if st.Kind == stepEdits && (st.Edits < 1 || st.Edits > 3 || !bytes.Contains(st.Body, []byte(`"edits"`))) {
				t.Fatalf("edits step with %d edits, body %s", st.Edits, st.Body)
			}
		}
	}
	// The offered rate holds to within 15% over a 10 s segment.
	if got := float64(n) / secs; got < 0.85*fleetRate || got > 1.15*fleetRate {
		t.Errorf("offered %.0f req/s, want about %.0f", got, fleetRate)
	}
}
