package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. An empty slice gives 0.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, its value, and the sample count it was taken from.
func tail(xs []time.Duration) (pct float64, v time.Duration) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p) >= 1000-1e-6 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, quantile(xs, 0.5)
}

// div returns a/b, or 0 when b is 0 (a metric over an empty phase).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSnap is process-wide CPU time and allocation count.
type procSnap struct {
	cpu    time.Duration
	allocs uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail on Linux
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
	}
}

// memSampler tracks the process memory the Go runtime holds while it
// runs: everything it has mapped (heap, including garbage not yet
// collected, goroutine stacks and its own metadata) less what it has
// released back to the operating system. It samples runtime/metrics,
// which does not stop the world.
type memSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const (
	memTotal    = "/memory/classes/total:bytes"
	memReleased = "/memory/classes/heap/released:bytes"
	memTick     = 10 * time.Millisecond
)

// startMemSampler first returns to the operating system what the set-up
// left behind, so that the peak is the measured phase's own.
func startMemSampler() *memSampler {
	debug.FreeOSMemory()
	s := &memSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{{Name: memTotal}, {Name: memReleased}}
	read := func() {
		metrics.Read(samples)
		s.peak = max(s.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
	}
	read()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(memTick)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MB. Memory the runtime
// releases lazily, after a high point, still counts until it is gone, so
// a peak shorter than the sampling tick is seen too.
func (s *memSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	return float64(s.peak) / 1e6
}
