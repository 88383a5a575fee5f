package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a high percentile of a sample, reported with the percentile
// it stands for and the sample count.
type tail struct {
	Value      float64
	Percentile float64
	N          int
	Blocks     int // blocks the median was taken over; 0 for one block
}

// tailPercentile picks, from p90, p99, p99.9 and p99.99, the highest
// percentile that has at least ten samples beyond it in a sample of n;
// 100 (the maximum) when none has. Workloads pass the smallest sample a
// run can have, so a faster program, which fits more jobs into a run,
// is not read at a higher percentile than a slower one.
func tailPercentile(n int) float64 {
	p := 100.0
	for _, bp := range []int{9000, 9900, 9990, 9999} { // basis points
		if n*(10_000-bp) >= 10*10_000 {
			p = float64(bp) / 100
		}
	}
	return p
}

// tailBlock is the sample count at which percentile has exactly ten
// samples beyond it: 100 for p90, 1000 for p99. It is 0 for 100 (the
// maximum), which no block size gives ten samples beyond.
func tailBlock(percentile float64) int {
	beyond := 10_000 - int(math.Round(percentile*100)) // basis points
	if beyond <= 0 {
		return 0
	}
	return 10 * 10_000 / beyond
}

// blockTail is the tail of a latency series in the order it was
// measured: the series is cut into consecutive blocks of
// tailBlock(percentile) samples (the last block takes the remainder),
// the percentile is read in each block, and the median over the blocks
// is reported. A burst of host noise that spoils a few blocks then
// moves the reading far less than it moves one percentile over the
// whole series. With no block size (the maximum) or fewer samples than
// one block, the whole series is one block.
func blockTail(xs []float64, percentile float64) tail {
	b := tailBlock(percentile)
	if b == 0 || len(xs) < 2*b {
		return tailOf(xs, percentile)
	}
	var per []float64
	for lo := 0; lo+b <= len(xs); lo += b {
		hi := lo + b
		if hi+b > len(xs) {
			hi = len(xs)
		}
		per = append(per, tailOf(xs[lo:hi], percentile).Value)
	}
	return tail{Value: median(per), Percentile: percentile, N: len(xs), Blocks: len(per)}
}

// tailOf returns the given percentile of xs (nearest rank).
func tailOf(xs []float64, percentile float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(percentile/100*float64(n))) - 1
	i = max(0, min(i, n-1))
	return tail{Value: s[i], Percentile: percentile, N: n}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runtimeCounters reads the Go runtime counters the benchmark reports
// through runtime/metrics, which reads without stopping the world.
type runtimeCounters struct {
	samples []metrics.Sample
}

const (
	mLive   = "/gc/heap/live:bytes"
	mAllocs = "/gc/heap/allocs:bytes"
	mGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU = "/cpu/classes/total:cpu-seconds"
)

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: mLive}, {Name: mAllocs}, {Name: mGCCPU}, {Name: mAllCPU},
	}}
}

// procSnap is one reading of the runtime counters.
type procSnap struct {
	live, allocs    uint64
	gcCPU, totalCPU float64
}

func (r *runtimeCounters) read() procSnap {
	metrics.Read(r.samples)
	return procSnap{
		live:     r.samples[0].Value.Uint64(),
		allocs:   r.samples[1].Value.Uint64(),
		gcCPU:    r.samples[2].Value.Float64(),
		totalCPU: r.samples[3].Value.Float64(),
	}
}

// allocBytes reads only the cumulative heap allocation counter; the
// traced runs call it once per fired event.
func (r *runtimeCounters) allocBytes() uint64 {
	metrics.Read(r.samples[1:2])
	return r.samples[1].Value.Uint64()
}

// liveHeapMB forces a collection and reports the live heap it marked,
// so the reading does not depend on where the last automatic cycle
// happened to fall.
func (r *runtimeCounters) liveHeapMB() float64 {
	runtime.GC()
	return float64(r.read().live) / 1e6
}

// procDelta is what the runtime spent between two readings.
type procDelta struct {
	allocMB   float64
	gcCPUFrac float64
}

func deltaOf(a, b procSnap) procDelta {
	d := procDelta{allocMB: float64(b.allocs-a.allocs) / 1e6}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// response is one in-process GET and what it took.
type response struct {
	code int
	body []byte
	wall time.Duration // elapsed host time
	cpu  time.Duration // CPU time of the thread that served it
}

// get issues one in-process GET against h on this goroutine, locked to
// its OS thread, so the request's latency can be read as the CPU time
// that thread spent on it. The loops that scrape are single closed
// loops, so nothing queues ahead of a request and on a dedicated host
// its latency is that CPU time. On a shared host the wall time also
// counts every stretch in which the hypervisor deschedules the thread,
// and those stretches set the wall-time tail (see README.md). The CPU
// time still counts the garbage collection work the runtime charges to
// the request.
func get(h http.Handler, path string) response {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu, start := threadCPU(), time.Now()
	h.ServeHTTP(rec, req)
	wall := time.Since(start)
	return response{code: rec.Code, body: rec.Body.Bytes(), wall: wall, cpu: threadCPU() - cpu}
}

// geomean is the geometric mean of xs, which must all be positive.
func geomean(xs []float64) float64 {
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
