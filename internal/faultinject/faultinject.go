// Package faultinject is a test-only fault-injection hook layer. Code
// under test registers no hooks in production: every instrumented site
// costs one atomic load when the registry is empty, so the hooks are
// compiled into hot paths (WAL writes, tile evaluation) without
// measurable overhead.
//
// Tests arm a site by name:
//
//	faultinject.Set("wal.append.write", faultinject.Fault{ShortWrite: 7, Err: errDisk})
//	defer faultinject.Reset()
//
// and the instrumented code observes the fault through Fire (delays,
// panics, injected errors) or ShortWrite (torn writes). Sites are plain
// strings; an unknown site is simply never armed. The registry is
// process-global and safe for concurrent use.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes one injected failure.
type Fault struct {
	// Err is the error the site reports (defaults to a generic
	// injected-fault error when the fault is armed with Panic unset).
	Err error
	// Panic, when non-nil, makes Fire panic with this value instead of
	// returning an error — the kernel-panic containment drill.
	Panic any
	// Delay is slept before the fault (and before a clean pass when it
	// is the only field set) — the slow-tile / slow-disk drill.
	Delay time.Duration
	// ShortWrite is the number of bytes a write site actually writes
	// before failing (torn-write drill). Consulted only by ShortWrite
	// call sites; clamped to the attempted length.
	ShortWrite int
	// Times disarms the fault after this many firings; 0 means it
	// stays armed until Reset.
	Times int
}

// ErrInjected is the default error reported by an armed site whose
// Fault has no explicit Err.
var ErrInjected = errors.New("faultinject: injected fault")

type armed struct {
	f     Fault
	fired int
}

var (
	mu     sync.Mutex
	nArmed atomic.Int32
	sites  map[string]*armed
)

// Set arms site with f, replacing any previous fault at that site.
func Set(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*armed)
	}
	if _, ok := sites[site]; !ok {
		nArmed.Add(1)
	}
	sites[site] = &armed{f: f}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	nArmed.Store(0)
	sites = nil
}

// take returns a copy of the fault to apply at site for this firing, or
// nil (not armed or already spent). It performs the Times bookkeeping
// and auto-disarms spent faults.
func take(site string) *Fault {
	mu.Lock()
	defer mu.Unlock()
	a, ok := sites[site]
	if !ok {
		return nil
	}
	a.fired++
	if a.f.Times > 0 && a.fired >= a.f.Times {
		delete(sites, site)
		nArmed.Add(-1)
	}
	f := a.f
	return &f
}

// Fire observes the fault armed at site: it sleeps Delay, panics with
// Panic when set, and otherwise returns the injected error. It returns
// nil when the site is not armed — the common case, decided by one
// atomic load.
func Fire(site string) error {
	if nArmed.Load() == 0 {
		return nil
	}
	f := take(site)
	if f == nil {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.Delay > 0 {
		// Delay-only fault: a slow site, not a failing one.
		return nil
	}
	return ErrInjected
}

// ShortWrite observes a write-site fault for an attempted n-byte write:
// it returns how many bytes the caller should actually write and the
// error to report afterwards. Unarmed sites pass through as (n, nil).
func ShortWrite(site string, n int) (int, error) {
	if nArmed.Load() == 0 {
		return n, nil
	}
	f := take(site)
	if f == nil {
		return n, nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	k := f.ShortWrite
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	return k, err
}
