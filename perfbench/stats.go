package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// lat records exact per-operation latencies in nanoseconds; percentiles
// come from the sorted samples, not from histogram buckets.
type lat struct{ ns []int64 }

func newLat(capacity int) *lat { return &lat{ns: make([]int64, 0, capacity)} }

func (l *lat) add(d int64) { l.ns = append(l.ns, d) }

func (l *lat) n() int { return len(l.ns) }

// pct returns the p-th percentile (0 < p < 100) in microseconds by the
// nearest-rank rule, and the sample count. Sorting is in place.
func (l *lat) pct(p float64) (float64, int) {
	if len(l.ns) == 0 {
		return 0, 0
	}
	if !slices.IsSorted(l.ns) {
		slices.Sort(l.ns)
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.ns))))
	if rank < 1 {
		rank = 1
	}
	return float64(l.ns[rank-1]) / 1e3, len(l.ns)
}

func (l *lat) meanUs() float64 {
	if len(l.ns) == 0 {
		return 0
	}
	var s int64
	for _, v := range l.ns {
		s += v
	}
	return float64(s) / float64(len(l.ns)) / 1e3
}

func (l *lat) merge(o *lat) { l.ns = append(l.ns, o.ns...) }

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// memPeak samples the live heap as of the last garbage collection every
// few milliseconds and keeps the maximum: the memory the run needed,
// without the garbage whose amount depends on when collections ran.
type memPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(samples)
		v := samples[0].Value.Uint64()
		if v > m.peak.Load() {
			m.peak.Store(v)
		}
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// mb stops the sampler and returns the peak in MB (10^6 bytes).
func (m *memPeak) mb() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak.Load()) / 1e6
}

// liveMB forces a collection and returns the live heap in MB: the memory
// held at this point, without garbage.
func liveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// rtStats is the slice of runtime.MemStats the per-layer metrics use.
type rtStats struct {
	mallocs uint64
	pauseNs uint64
}

func readRT() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

func (s rtStats) sub(o rtStats) rtStats {
	return rtStats{mallocs: s.mallocs - o.mallocs, pauseNs: s.pauseNs - o.pauseNs}
}
