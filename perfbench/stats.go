package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count). xs is sorted in place.
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

// minSamples is the fewest samples that leave minBeyond beyond the pct-th
// percentile.
func minSamples(pct int) int {
	return (minBeyond*100 + 99 - pct) / (100 - pct)
}

// tail returns the pct-th percentile of xs by nearest rank. It fails when
// fewer than minBeyond samples lie beyond it, so the tail a run reports is
// always the same percentile, however many operations fit in the window.
// xs is sorted in place.
func tail(xs []float64, pct int) (float64, error) {
	n := len(xs)
	idx := (pct*n+99)/100 - 1
	if beyond := n - idx - 1; idx < 0 || beyond < minBeyond {
		return 0, fmt.Errorf("%d samples leave %d beyond p%d; the tail needs %d (at least %d samples)",
			n, max(beyond, 0), pct, minBeyond, minSamples(pct))
	}
	sort.Float64s(xs)
	return xs[idx], nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// budget bounds a measurement window: by wall time in benchmark runs, by a
// fixed operation count in the tests, where counts must repeat exactly. A
// timed window runs on past its seconds until it has done minOps
// operations, so that a slow host or a slow commit still leaves enough
// samples for the workload's tail percentile.
type budget struct {
	seconds float64
	minOps  int
	ops     int
}

// more reports whether another operation fits after done operations
// started at start.
func (b budget) more(start time.Time, done int) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return done < b.minOps || time.Since(start).Seconds() < b.seconds
}

// heldMiB forces a collection and returns the live heap it leaves: the
// memory the workload holds at that instant (inputs, caches, results), free
// of the garbage-collector pacing that makes the resident set of an
// allocation-heavy window swing by 10%.
func heldMiB() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64()) / (1 << 20)
}

// allocCounter reads the runtime's cumulative heap allocation counters, so
// allocations can be attributed to the calls between two reads.
type allocCounter struct {
	samples [2]metrics.Sample
}

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:objects"
	a.samples[1].Name = "/gc/heap/allocs:bytes"
	return a
}

// read returns the objects and bytes allocated since the program started.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// gcSnap is the runtime's garbage-collector state at one instant.
type gcSnap struct {
	cycles   uint32
	pauseNs  uint64
	allocB   uint64
	gcCPU    float64
	totalCPU float64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return gcSnap{
		cycles:   ms.NumGC,
		pauseNs:  ms.PauseTotalNs,
		allocB:   ms.TotalAlloc,
		gcCPU:    cpu[0].Value.Float64(),
		totalCPU: cpu[1].Value.Float64(),
	}
}

// gcDelta reports the collector's work between two snapshots as the go.*
// per-layer metrics.
func gcDelta(a, b gcSnap, out map[string]float64) {
	out["go.gc_cycles"] = float64(b.cycles - a.cycles)
	out["go.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	out["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	out["go.alloc_mb"] = float64(b.allocB-a.allocB) / (1 << 20)
}

// subSeed derives an independent PRNG seed for one use of the run seed,
// so adding a draw in one place does not shift the inputs of another.
func subSeed(seed int64, salts ...int64) int64 {
	x := uint64(seed)
	for _, s := range salts {
		x ^= uint64(s) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x & math.MaxInt64)
}
