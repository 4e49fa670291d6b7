package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestUnarmedSitesPassThrough(t *testing.T) {
	Reset()
	if err := Fire("nowhere"); err != nil {
		t.Fatalf("Fire(unarmed) = %v", err)
	}
	if n, err := ShortWrite("nowhere", 42); n != 42 || err != nil {
		t.Fatalf("ShortWrite(unarmed) = %d, %v", n, err)
	}
}

func TestFireErrAndDefault(t *testing.T) {
	defer Reset()
	errBoom := errors.New("boom")
	Set("a", Fault{Err: errBoom})
	if err := Fire("a"); !errors.Is(err, errBoom) {
		t.Fatalf("Fire = %v, want %v", err, errBoom)
	}
	Set("b", Fault{})
	if err := Fire("b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Fire(zero fault) = %v, want ErrInjected", err)
	}
	// A different site stays unarmed.
	if err := Fire("c"); err != nil {
		t.Fatalf("Fire(other site) = %v", err)
	}
}

func TestDelayOnlyFaultPassesClean(t *testing.T) {
	defer Reset()
	Set("slow", Fault{Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := Fire("slow"); err != nil {
		t.Fatalf("delay-only Fire = %v, want nil", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("Fire returned after %v, want ≥ 10ms", d)
	}
}

func TestPanicFault(t *testing.T) {
	defer Reset()
	Set("p", Fault{Panic: "kernel exploded"})
	defer func() {
		if r := recover(); r != "kernel exploded" {
			t.Fatalf("recover = %v", r)
		}
	}()
	_ = Fire("p")
	t.Fatal("Fire did not panic")
}

func TestTimesAutoDisarms(t *testing.T) {
	defer Reset()
	// Fail exactly twice, then auto-disarm.
	Set("n", Fault{Times: 2})
	var got []bool
	for i := 0; i < 4; i++ {
		got = append(got, Fire("n") != nil)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: injected=%v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestShortWriteClamps(t *testing.T) {
	defer Reset()
	Set("w", Fault{ShortWrite: 100})
	if n, err := ShortWrite("w", 7); n != 7 || err == nil {
		t.Fatalf("ShortWrite clamp = %d, %v; want 7 bytes and an error", n, err)
	}
	Set("w", Fault{ShortWrite: -3})
	if n, _ := ShortWrite("w", 7); n != 0 {
		t.Fatalf("negative ShortWrite = %d, want 0", n)
	}
	Set("w", Fault{ShortWrite: 3})
	if n, err := ShortWrite("w", 7); n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("ShortWrite = %d, %v", n, err)
	}
}

func TestResetDisarmsEverySite(t *testing.T) {
	defer Reset()
	Set("x", Fault{})
	Set("y", Fault{})
	Reset()
	for _, site := range []string{"x", "y"} {
		if err := Fire(site); err != nil {
			t.Fatalf("site %q fired after Reset: %v", site, err)
		}
	}
	Set("y", Fault{}) // re-arming after Reset works
	if err := Fire("y"); err == nil {
		t.Fatal("re-armed site did not fire")
	}
}
