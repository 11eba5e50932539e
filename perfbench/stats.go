package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// reservoirCap bounds each sampler: a uniform reservoir of this many
// observations keeps a traced run's memory flat however many calls it
// times.
const reservoirCap = 1 << 17

// sampler is a uniform reservoir of int64 observations (Algorithm R),
// safe for concurrent use. The traced run times every call into a
// layer and feeds one sampler per call site.
type sampler struct {
	mu  sync.Mutex
	n   int64
	buf []int64
	rng *rand.Rand
}

func newSampler(seed int64) *sampler { return &sampler{rng: rand.New(rand.NewSource(seed))} }

func (s *sampler) add(v int64) {
	s.mu.Lock()
	s.n++
	if len(s.buf) < reservoirCap {
		s.buf = append(s.buf, v)
	} else if i := s.rng.Int63n(s.n); i < reservoirCap {
		s.buf[i] = v
	}
	s.mu.Unlock()
}

func (s *sampler) addSince(t0 time.Time) { s.add(int64(time.Since(t0))) }

// count is the number of observations offered, not the number kept.
func (s *sampler) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// quantiles returns the nearest-rank quantiles of the kept sample.
func (s *sampler) quantiles(qs ...float64) []float64 {
	s.mu.Lock()
	sorted := append([]int64(nil), s.buf...)
	s.mu.Unlock()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(sorted, q)
	}
	return out
}

// quantile is the nearest-rank q-quantile of an ascending slice; 0 for
// an empty one.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// per is a/b, or 0 when b is 0 (a layer or phase that saw no work).
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of float64 values (mean of the middle two for an even count).
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

// quartiles returns min, the three quartiles and max of xs.
func quartiles(xs []float64) [5]float64 {
	var q [5]float64
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return [5]float64{s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]}
}

// windowNS is the width of the throughput windows: a run's commit_tps
// is the median of its per-window rates, so one stalled window (an
// fsync hiccup from a neighbour on the disk) moves it little.
const windowNS = int64(500 * time.Millisecond)

// loopStats is what one closed-loop client measures in one round: the
// latency of every logical transaction and its completion window.
type loopStats struct {
	lat     []int64 // ns, first begin to commit ack, retries included
	windows []int64 // commits completed per windowNS since round start
}

func (l *loopStats) observe(start, t0, t1 time.Time) {
	l.lat = append(l.lat, int64(t1.Sub(t0)))
	w := int(int64(t1.Sub(start)) / windowNS)
	for len(l.windows) <= w {
		l.windows = append(l.windows, 0)
	}
	l.windows[w]++
}

// bytes is the heap the stats hold, subtracted from a round's retained
// heap so the benchmark's own bookkeeping does not count as the
// program's state.
func (l *loopStats) bytes() int64 { return int64(cap(l.lat)+cap(l.windows)) * 8 }

// fullWindowRates sums the clients' windows and returns the commit
// rate of every window that lies wholly inside a round of length d.
func fullWindowRates(clients []*loopStats, d time.Duration) []float64 {
	n := int(int64(d) / windowNS)
	rates := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		var c int64
		for _, l := range clients {
			if w < len(l.windows) {
				c += l.windows[w]
			}
		}
		rates = append(rates, float64(c)/(float64(windowNS)/1e9))
	}
	return rates
}

// windowQuantile returns the q-quantile latency of every window that
// lies wholly inside a round of length d. A round's txn_p99_us is the
// median of these: one stalled window moves it little, while a tail
// that every window shares moves it fully.
func windowQuantile(clients []*loopStats, d time.Duration, q float64) []float64 {
	n := int(int64(d) / windowNS)
	out := make([]float64, 0, n)
	starts := make([]int64, len(clients))
	var buf []int64
	for w := 0; w < n; w++ {
		buf = buf[:0]
		for i, l := range clients {
			if w < len(l.windows) {
				buf = append(buf, l.lat[starts[i]:starts[i]+l.windows[w]]...)
				starts[i] += l.windows[w]
			}
		}
		sortInt64(buf)
		out = append(out, quantile(buf, q))
	}
	return out
}

// liveHeap forces a full collection and returns the live heap bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// gcDelta accumulates Go runtime counters over measured phases.
type gcDelta struct {
	allocB  uint64
	cycles  uint32
	pauseNS uint64
	before  runtime.MemStats
}

func (g *gcDelta) start() { runtime.ReadMemStats(&g.before) }

func (g *gcDelta) add(o gcDelta) {
	g.allocB += o.allocB
	g.cycles += o.cycles
	g.pauseNS += o.pauseNS
}

func (g *gcDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.allocB += after.TotalAlloc - g.before.TotalAlloc
	g.cycles += after.NumGC - g.before.NumGC
	g.pauseNS += after.PauseTotalNs - g.before.PauseTotalNs
}
