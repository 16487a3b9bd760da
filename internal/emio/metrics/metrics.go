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
//  2. Allocation-free hot paths. Every recording site obtains its Handle
//     once, at setup time; Inc/Add/Observe on a handle is a single atomic
//     RMW on a cache line the handle owns — no map lookups, no interface
//     calls, no allocations.
//  3. Shard-per-goroutine. A Counter or Histogram is a small fixed array of
//     cache-line-padded shards; each recording site (the algorithm
//     goroutine's logical transfers, the file store's physical transfers)
//     holds a handle bound to its own shard, so concurrent recording seldom
//     contends on a line. Reading sums the shards.
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

// numShards is the shard count of counters and histograms. Recording sites
// are assigned shards round-robin; the EM machine has a handful of recording
// roles (logical and physical transfers, retries), so a small power of two
// keeps reads cheap while spreading cross-goroutine contention.
const numShards = 8

// pad fills a counter shard out to a 64-byte cache line so neighbouring
// shards never false-share.
type counterShard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	name, help string
	shards     [numShards]counterShard
	next       atomic.Uint32 // round-robin handle assignment
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Handle binds a recording handle to one shard of the counter. Call once per
// recording goroutine (or site) during setup; the returned handle records
// with a single uncontended atomic add.
func (c *Counter) Handle() *CounterHandle {
	i := c.next.Add(1) - 1
	return &CounterHandle{s: &c.shards[i%numShards]}
}

// Add increments the counter through a default shard. Convenience for cold
// paths; hot paths use a Handle.
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// Inc adds one through a default shard (cold-path convenience).
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// Value sums the shards: the counter's current total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// CounterHandle is a shard-bound recorder for one Counter.
type CounterHandle struct{ s *counterShard }

// Inc adds one.
func (h *CounterHandle) Inc() { h.s.v.Add(1) }

// Add adds n.
func (h *CounterHandle) Add(n int64) { h.s.v.Add(n) }

// Gauge is an instantaneous value: queue depth, live scratch files, current
// phase depth. A single atomic — gauges are updated from at most a couple of
// sites and read rarely.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Info is a string-valued gauge (e.g. the current phase name), exported in
// Prometheus info-metric style: name{label="value"} 1.
type Info struct {
	name, help, label string
	v                 atomic.Value // string
}

// Name returns the registered metric name.
func (i *Info) Name() string { return i.name }

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

// histShard is one goroutine's slice of a histogram, padded at the front so
// consecutive shards start on distinct cache lines.
type histShard struct {
	count, sum atomic.Int64
	max        atomic.Int64
	// maxSeq is the exemplar: the span sequence number active when max was
	// stored, linking the worst observation to the phase that caused it.
	maxSeq  atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Histogram is a log-bucketed (power-of-two) histogram of non-negative
// values — latencies in nanoseconds, run sizes in blocks. Log bucketing
// gives ~2x relative error on quantile estimates across 19 decades for 64
// words per shard, which is the right trade for live telemetry (the tracer
// keeps exact per-phase numbers for post-hoc work).
type Histogram struct {
	name, help, unit string
	shards           [numShards]histShard
	next             atomic.Uint32
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Handle binds a recording handle to one shard. One per recording goroutine.
func (h *Histogram) Handle() *HistogramHandle {
	i := h.next.Add(1) - 1
	return &HistogramHandle{s: &h.shards[i%numShards]}
}

// Observe records v through a default shard (cold-path convenience).
func (h *Histogram) Observe(v int64) { observe(&h.shards[0], v, 0) }

// ObserveEx records v with an exemplar span sequence number through a
// default shard.
func (h *Histogram) ObserveEx(v, seq int64) { observe(&h.shards[0], v, seq) }

// HistogramHandle is a shard-bound recorder for one Histogram.
type HistogramHandle struct{ s *histShard }

// Observe records one value. Negative values clamp to zero.
func (hh *HistogramHandle) Observe(v int64) { observe(hh.s, v, 0) }

// ObserveEx records one value tagged with the span sequence number that
// produced it. When v becomes the shard's new maximum, seq is kept as the
// histogram's exemplar — a p99/max spike in a scrape then names the exact
// span to look up in the trace.
func (hh *HistogramHandle) ObserveEx(v, seq int64) { observe(hh.s, v, seq) }

func observe(s *histShard, v, seq int64) {
	if v < 0 {
		v = 0
	}
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur {
			break
		}
		if s.max.CompareAndSwap(cur, v) {
			// Benign race: a concurrent larger observation may overwrite
			// maxSeq between our CAS and this store; the exemplar is a hint,
			// not an invariant.
			s.maxSeq.Store(seq)
			break
		}
	}
	s.buckets[bits.Len64(uint64(v))].Add(1)
}

// bucketUpper returns the exclusive upper bound of bucket i: 2^i
// (bucket 0 holds only zeros; its upper bound is reported as 1).
func bucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << i
}

// HistogramSnapshot is a merged, point-in-time view of a Histogram.
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

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// snapshot merges the shards and computes quantiles.
func (h *Histogram) snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	var merged [histBuckets]int64
	hi := -1
	for i := range h.shards {
		s := &h.shards[i]
		snap.Count += s.count.Load()
		snap.Sum += s.sum.Load()
		if m := s.max.Load(); m > snap.Max {
			snap.Max = m
			snap.MaxSeq = s.maxSeq.Load()
		}
		for b := range s.buckets {
			if n := s.buckets[b].Load(); n != 0 {
				merged[b] += n
				if b > hi {
					hi = b
				}
			}
		}
	}
	if hi >= 0 {
		snap.Buckets = append([]int64(nil), merged[:hi+1]...)
	}
	snap.P50 = quantile(merged[:], snap.Count, 0.50)
	snap.P95 = quantile(merged[:], snap.Count, 0.95)
	snap.P99 = quantile(merged[:], snap.Count, 0.99)
	if snap.P50 > snap.Max && snap.Max > 0 {
		snap.P50 = snap.Max
	}
	if snap.P95 > snap.Max && snap.Max > 0 {
		snap.P95 = snap.Max
	}
	if snap.P99 > snap.Max && snap.Max > 0 {
		snap.P99 = snap.Max
	}
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
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(buckets) - 1)
}
