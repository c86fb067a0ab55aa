package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSample is how often the memory sampler reads the runtime.
const memSample = 5 * time.Millisecond

// memMetrics are the runtime/metrics the sampler reads: everything the Go
// runtime has mapped, minus what it returned to the OS and what sits free in
// the heap — the memory the program holds resident.
var memMetrics = []string{
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/memory/classes/heap/free:bytes",
}

// memSampler tracks the peak of the memory the program holds, per window.
// The process-wide high-water mark of the resident set would carry one
// iteration's garbage into the next and swing with GC timing; a window's
// peak of held memory describes that window alone.
type memSampler struct {
	mu      sync.Mutex
	peak    uint64
	samples []metrics.Sample
	stop    chan struct{}
	done    chan struct{}
}

// startMem starts sampling; close stops it.
func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, name := range memMetrics {
		m.samples = append(m.samples, metrics.Sample{Name: name})
	}
	m.read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(memSample)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.read()
			}
		}
	}()
	return m
}

// read takes one sample and raises the window's peak.
func (m *memSampler) read() {
	m.mu.Lock()
	defer m.mu.Unlock()
	metrics.Read(m.samples)
	held := m.samples[0].Value.Uint64() - m.samples[1].Value.Uint64() - m.samples[2].Value.Uint64()
	m.peak = max(m.peak, held)
}

// window ends the current window, returning its peak in MiB, and starts the
// next one at the current level.
func (m *memSampler) window() float64 {
	m.read()
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for its goroutine.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}
