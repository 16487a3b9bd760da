// Package metrics is the live-telemetry subsystem of the EM machine: a
// registry of counters, gauges and log-bucketed latency histograms that the
// I/O hot paths feed while an algorithm runs, so a multi-gigabyte
// partition/sort job can be watched mid-flight instead of post-hoc (the
// tracer and PhysStats only report after a run finishes).
//
// Design constraints, in order:
//
//  1. Zero model interference. Recording performs no simulated I/O, no
//     budgeted allocation and no random draws, so logical Stats and trace
//     JSON are bit-identical with metrics on or off (the parity suite proves
//     it).
//  2. Allocation-free hot paths. Every recording site resolves its
//     instrument once, at setup time; Inc/Add/Observe is a few atomic RMWs
//     on the instrument itself — no map lookups, no interface calls, no
//     allocations.
//  3. One recorder, concurrent readers. A registry's instruments are
//     recorded by the goroutine that drives its disks, one job after
//     another; only a Cancel from another goroutine bumps a counter beside
//     it. A scrape, the progress sampler and the OTLP writer read while the
//     job records, so every instrument is a set of atomics.
//
// Scrape-side operations (Snapshot, WritePrometheus) take locks and
// allocate freely — they run on the observer's goroutine, never the
// algorithm's.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	help string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the counter's current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value: queue depth, live scratch files, current
// phase depth.
type Gauge struct {
	help string
	v    atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Info is a string-valued gauge (e.g. the current phase name), exported in
// Prometheus info-metric style: name{label="value"} 1.
type Info struct {
	help, label string
	v           atomic.Value // string
}

// Set stores the current string value.
func (i *Info) Set(s string) { i.v.Store(s) }

// Value returns the current string value ("" before the first Set).
func (i *Info) Value() string {
	s, _ := i.v.Load().(string)
	return s
}

// histBuckets is the bucket count of a histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the entire non-negative int64 range, so Observe needs no
// range check beyond clamping negatives.
const histBuckets = 64

// Histogram is a log-bucketed (power-of-two) histogram of non-negative
// values — latencies in nanoseconds, run sizes in blocks. Log bucketing
// gives ~2x relative error on quantile estimates across 19 decades for 64
// words, which is the right trade for live telemetry (the tracer keeps
// exact per-phase numbers for post-hoc work).
type Histogram struct {
	help, unit string
	count, sum atomic.Int64
	max        atomic.Int64
	// maxSeq is the exemplar: the span sequence number active when max was
	// stored, linking the worst observation to the phase that caused it.
	maxSeq  atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) { h.ObserveEx(v, 0) }

// ObserveEx records one value tagged with the span sequence number that
// produced it. When v becomes the new maximum, seq is kept as the
// histogram's exemplar — a p99/max spike in a scrape then names the exact
// span to look up in the trace.
func (h *Histogram) ObserveEx(v, seq int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			// Benign race: a concurrent larger observation may overwrite
			// maxSeq between our CAS and this store; the exemplar is a hint,
			// not an invariant.
			h.maxSeq.Store(seq)
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// bucketCeil returns the largest value bucket i holds: 2^i - 1, and 0 for
// bucket 0, which holds only zeros. Prometheus le labels and OTLP explicit
// bounds are both inclusive upper bounds, so both exports use it.
func bucketCeil(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Count, Sum, Max int64
	// MaxSeq is the exemplar: the span seq recorded with the maximum
	// observation (0 when no exemplar was attached).
	MaxSeq int64
	// Buckets[i] counts observations in [2^(i-1), 2^i); Buckets[0] counts
	// zeros. Trailing empty buckets are trimmed.
	Buckets []int64
	// Quantile estimates from the log buckets (upper-bound biased: the
	// reported value is the bucket ceiling, so estimates err high by < 2x).
	P50, P95, P99 int64
}

// snapshot reads the histogram and computes quantiles.
func (h *Histogram) snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
		MaxSeq: h.maxSeq.Load(),
	}
	var buckets [histBuckets]int64
	hi := -1
	for b := range h.buckets {
		if n := h.buckets[b].Load(); n != 0 {
			buckets[b] = n
			hi = b
		}
	}
	if hi >= 0 {
		snap.Buckets = append([]int64(nil), buckets[:hi+1]...)
	}
	// A bucket's ceiling can pass the largest value observed in it.
	snap.P50 = min(quantile(buckets[:], snap.Count, 0.50), snap.Max)
	snap.P95 = min(quantile(buckets[:], snap.Count, 0.95), snap.Max)
	snap.P99 = min(quantile(buckets[:], snap.Count, 0.99), snap.Max)
	return snap
}

// quantile walks the cumulative bucket counts and returns the ceiling of the
// bucket containing rank q*count (0 when the histogram is empty).
func quantile(buckets []int64, count int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			return bucketCeil(i)
		}
	}
	return bucketCeil(len(buckets) - 1)
}
