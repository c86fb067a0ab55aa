package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is shared, and its speed drifts: the same fixed loop
// can run a third to twice as slow for seconds or minutes at a time, on every
// CPU at once and with no steal time to show for it, so a time taken in one
// such stretch does not compare with one taken in the next. A speedometer
// runs beside the workload. Every speedEvery it runs a fixed reference kernel
// and reads how long the kernel took in its own thread's CPU time, which
// leaves out any wait for a CPU and counts only how fast the CPU ran. Each
// time a run reports is then rescaled to a host that runs the kernel in
// speedRef: a time t taken while the kernel averaged k reads as t·speedRef/k.
// The report keeps the raw times beside the rescaled ones.
const (
	speedEvery = 20 * time.Millisecond
	speedRef   = time.Millisecond
	// speedPad widens the interval whose kernel samples rescale a time, so
	// a short operation still has several.
	speedPad = 50 * time.Millisecond
)

// Kernel sizes: elliptic-curve signatures, hashing, and scattered reads and
// writes over a buffer larger than the CPU caches, the kinds of work the
// workloads spend their time on. One kernel takes about speedRef.
const (
	speedSigs    = 16
	speedHash    = 16 << 10
	speedWords   = 1 << 20 // a 4 MiB buffer
	speedTouches = 1 << 14
)

// speedometer samples the host's speed until close.
type speedometer struct {
	mu   sync.Mutex
	at   []time.Time // when each kernel ended
	took []float64   // its thread CPU time, in seconds
	stop chan struct{}
	done chan struct{}
	// sink keeps the kernel's results, so the compiler cannot drop it.
	sink uint64
}

// startSpeedometer starts sampling on a thread of its own.
func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go s.sample()
	return s
}

func (s *speedometer) sample() {
	defer close(s.done)
	// Thread CPU time is only the kernel's own if the goroutine keeps its
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, speedHash)
	mem := make([]uint32, speedWords)
	t := time.NewTicker(speedEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		c0 := threadCPU()
		s.sink += kernel(key, msg, mem)
		took := threadCPU() - c0
		s.mu.Lock()
		s.at = append(s.at, time.Now())
		s.took = append(s.took, took)
		s.mu.Unlock()
	}
}

// kernel is the fixed reference work.
func kernel(key ed25519.PrivateKey, msg []byte, mem []uint32) uint64 {
	var acc uint64
	for i := range speedSigs {
		msg[0] = byte(i)
		acc += uint64(ed25519.Sign(key, msg[:64])[0])
	}
	sum := sha256.Sum256(msg)
	acc += uint64(sum[0])
	x := uint32(2463534242)
	for range speedTouches {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		mem[x&(speedWords-1)] += x
	}
	return acc + uint64(mem[x&(speedWords-1)])
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// close stops sampling and waits for the sampler to end.
func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// factor is speedRef over the mean kernel time sampled from t0-speedPad to
// t1+speedPad, the factor that rescales a time taken from t0 to t1. With no
// sample there it falls back to the run's median, and with none at all to 1.
func (s *speedometer) factor(t0, t1 time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(t0.Add(-speedPad)) })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t1.Add(speedPad)) })
	var k float64
	if lo < hi {
		for _, v := range s.took[lo:hi] {
			k += v
		}
		k /= float64(hi - lo)
	} else {
		k = median(s.took)
	}
	if k <= 0 {
		return 1
	}
	return speedRef.Seconds() / k
}

// summary describes the samples for the report.
func (s *speedometer) summary() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	sorted := append([]float64(nil), s.took...)
	sort.Float64s(sorted)
	return map[string]any{
		"samples":       len(sorted),
		"every_ms":      speedEvery.Seconds() * 1e3,
		"ref_ms":        speedRef.Seconds() * 1e3,
		"kernel_p10_ms": percentile(sorted, 10) * 1e3,
		"kernel_p50_ms": percentile(sorted, 50) * 1e3,
		"kernel_p90_ms": percentile(sorted, 90) * 1e3,
	}
}
