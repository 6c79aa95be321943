package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// dist is a latency or size distribution summarised the way every timing
// in the report is: nearest-rank percentiles plus the sample count they
// rest on, so a tail percentile with too few samples beyond it shows.
type dist struct {
	vals []float64
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

// pct returns the nearest-rank p-th percentile (0 < p <= 100) and the
// number of samples it was taken over. An empty distribution yields 0.
func (d *dist) pct(p float64) (float64, int) {
	return percentile(d.vals, p), len(d.vals)
}

// percentile is the nearest-rank percentile: the smallest sample such
// that at least p percent of the samples are <= it. It sorts vals in
// place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(vals) {
		sort.Float64s(vals)
	}
	rank := int(math.Ceil(p / 100 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return vals[rank-1]
}

// median leaves vals as they are; an empty slice yields 0.
func median(vals []float64) float64 {
	return percentile(append([]float64(nil), vals...), 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSampler polls process and layer gauges while a workload runs: peak
// HeapInuse for heap_peak_mb and any extra gauges a workload registers
// (mq backlog, checkpoint progress). ReadMemStats stops the world for
// tens of microseconds, so the period is kept coarse.
type procSampler struct {
	heapPeak atomic.Uint64
	stop     chan struct{}
	done     chan struct{}
	polls    []func()
}

func startSampler(every time.Duration, polls ...func()) *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan struct{}), polls: polls}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			if m.HeapInuse > s.heapPeak.Load() {
				s.heapPeak.Store(m.HeapInuse)
			}
			for _, f := range s.polls {
				f()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for its goroutine; it returns peak
// HeapInuse in MiB.
func (s *procSampler) halt() float64 {
	close(s.stop)
	<-s.done
	return float64(s.heapPeak.Load()) / (1 << 20)
}

// memWindow brackets a measured window with MemStats reads for the
// allocation and GC figures.
type memWindow struct {
	m0 runtime.MemStats
}

func openMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.m0)
	return w
}

// close returns mallocs, GC cycles and total GC pause over the window.
func (w *memWindow) close() (mallocs uint64, gcs uint32, pause time.Duration) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - w.m0.Mallocs, m1.NumGC - w.m0.NumGC, time.Duration(m1.PauseTotalNs - w.m0.PauseTotalNs)
}
