package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest of p90, p99 and p99.9 that leaves at
// least ten samples beyond it, by the nearest-rank rule. ok is false when
// the sample is too small for any of them (fewer than 100 values).
func tailPercentile(xs []float64) (label string, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		rank := int(p.q * float64(len(s)))
		if len(s)-rank >= 10 && rank > 0 {
			return p.label, s[rank-1], true
		}
	}
	return "", 0, false
}

// summary renders a timing sample as median, supported tail percentile (or
// the maximum when no percentile has ten samples beyond it) and count.
func summary(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	if label, v, ok := tailPercentile(xs); ok {
		return fmt.Sprintf("median=%.6g %s=%.6g n=%d", median(xs), label, v, len(xs))
	}
	hi := xs[0]
	for _, x := range xs {
		hi = max(hi, x)
	}
	return fmt.Sprintf("median=%.6g max=%.6g n=%d (too few for a tail percentile)", median(xs), hi, len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap while an operation runs: the heap
// the garbage collector found reachable at the end of each cycle
// (/gc/heap/live:bytes), read once per cycle by a finalizer that re-arms
// itself on a fresh sentinel, so sampling costs nothing between
// collections. Unlike the resident set, which also holds garbage up to the
// next collection and so swings with where collections happen to fall, the
// live heap is the memory the program must hold.
type heapSampler struct {
	mu      sync.Mutex
	stopped bool
	peak    uint64
}

// sentinel carries a pointer so it is never placed by the tiny allocator,
// whose objects may never be finalized.
type sentinel struct{ _ *byte }

// startHeapSampler collects garbage first, so the peak starts from what is
// live before the operation.
func startHeapSampler() *heapSampler {
	runtime.GC()
	s := &heapSampler{}
	s.observe()
	s.arm()
	return s
}

func (s *heapSampler) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if s.observe() {
			s.arm()
		}
	})
}

// observe folds the latest cycle's live heap into the peak and reports
// whether sampling continues.
func (s *heapSampler) observe() bool {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak = max(s.peak, sample[0].Value.Uint64())
	return !s.stopped
}

// finish stops sampling and returns the peak live heap in bytes.
func (s *heapSampler) finish() uint64 {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	return s.peak
}
