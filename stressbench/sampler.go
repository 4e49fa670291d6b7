package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// sampler polls gauges every 2 ms until stop and keeps their maxima:
// goroutines and the serve queue depths of a traced segment.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	maxes map[string]float64
}

// startSampler starts polling probe.
func startSampler(probe func() map[string]float64) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{}), maxes: map[string]float64{}}
	poll := func() {
		gauges := probe()
		s.mu.Lock()
		for k, v := range gauges {
			if v > s.maxes[k] {
				s.maxes[k] = v
			}
		}
		s.mu.Unlock()
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			poll()
			select {
			case <-s.stopc:
				poll()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends polling and waits for the poller to exit.
func (s *sampler) stop() {
	close(s.stopc)
	<-s.done
}

func (s *sampler) max(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxes[name]
}

// runtimeProbe observes goroutines for a traced segment.
func runtimeProbe() map[string]float64 {
	return map[string]float64{"goroutines": float64(runtime.NumGoroutine())}
}

// gcPauseTotal returns the process's cumulative GC stop-the-world pause.
func gcPauseTotal() time.Duration {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return time.Duration(m.PauseTotalNs)
}

// liveHeap collects garbage and returns the live Go heap in bytes: the
// memory the workload holds at this point, free of how much garbage the
// GC pacer happened to let build up and of sync.Pool scratch (dropped by
// the second collection), so it repeats from run to run.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
