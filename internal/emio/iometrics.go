package emio

// Live-metrics wiring for the EM machine. An IOMetrics bundles the handles
// the I/O hot paths record through: logical block reads/writes with
// latencies, physical transfers with latencies and coalesced-run sizes,
// pipeline queue depth, prefetch hits/misses, free-extent reuse, live
// disk/scratch gauges, and the phase gauges, which the disk sets from the
// innermost open span at every span boundary (Disk.enterSpan, exitSpan).
// Latency observations carry that span's seq as their exemplar.
//
// The determinism contract matches the tracer's: recording reads the wall
// clock and bumps atomics, but performs no simulated I/O, no budgeted
// allocation and no random draws, so logical Stats, trace span trees and all
// outputs are bit-identical with metrics enabled or disabled (the metrics
// parity suite proves it). With metrics disabled every hot-path site is one
// nil check.
//
// Handles are bound per recording role (logical transfers on the algorithm
// goroutine, physical transfers on whichever goroutine completes them), so
// concurrent recording rarely contends on a cache line; see package metrics.

import "repro/internal/emio/metrics"

// IOMetrics is the live instrument bundle of one Disk. Create it by calling
// Disk.EnableMetrics with a registry; several Disks may share one registry
// (registration is idempotent and counters accumulate), which is how a
// multi-system benchmark serves a single scrape endpoint.
type IOMetrics struct {
	reg *metrics.Registry

	// Algorithm-goroutine handles: logical block transfers. The EM model is
	// sequential, so exactly one goroutine records these.
	logReads, logWrites   *metrics.CounterHandle
	logReadNS, logWriteNS *metrics.HistogramHandle
	corruptions           *metrics.CounterHandle // checksum mismatches surfaced to readers

	// Job-lifecycle events: cooperative cancellations and disk-quota
	// rejections. Bumped from whichever goroutine triggers them (a signal
	// handler for cancels) — handles are goroutine-safe.
	cancels      *metrics.CounterHandle
	quotaRejects *metrics.CounterHandle

	// Gauges (single atomics; updated from whichever goroutine owns the
	// underlying quantity).
	liveBlocks   *metrics.Gauge
	liveScratch  *metrics.Gauge
	queueDepth   *metrics.Gauge
	backingBytes *metrics.Gauge

	// Phase telemetry, set at span boundaries (Ctx.StartSpan / Span.End)
	// whether or not a tracer is attached.
	phaseInfo   *metrics.Info
	phaseLevel  *metrics.Gauge
	phaseStarts *metrics.CounterVec
}

// newIOMetrics registers the disk-level instruments on reg and binds the
// algorithm-goroutine handles.
func newIOMetrics(reg *metrics.Registry) *IOMetrics {
	m := &IOMetrics{reg: reg}
	m.logReads = reg.Counter("empart_logical_reads_total",
		"logical block reads charged to the EM cost model").Handle()
	m.logWrites = reg.Counter("empart_logical_writes_total",
		"logical block writes charged to the EM cost model").Handle()
	m.logReadNS = reg.Histogram("empart_logical_read_ns",
		"latency of one logical block read, store roundtrip included", "ns").Handle()
	m.logWriteNS = reg.Histogram("empart_logical_write_ns",
		"latency of one logical block write (enqueue time under write-behind)", "ns").Handle()
	m.corruptions = reg.Counter("empart_corruption_detected_total",
		"block reads rejected by CRC32C checksum verification").Handle()
	m.cancels = reg.Counter("empart_job_cancels_total",
		"jobs cancelled cooperatively (signal, context, admission)").Handle()
	m.quotaRejects = reg.Counter("empart_disk_quota_rejections_total",
		"block appends rejected by the disk-byte budget").Handle()
	m.liveBlocks = reg.Gauge("empart_live_disk_blocks",
		"blocks currently held by unreleased files")
	m.liveScratch = reg.Gauge("empart_live_scratch_files",
		"algorithm scratch files currently live")
	m.queueDepth = reg.Gauge("empart_write_queue_depth",
		"blocks staged or in flight in staged batch writes")
	m.backingBytes = reg.Gauge("empart_backing_bytes",
		"high-water byte size of the backing file (0 for memory disks)")
	m.phaseInfo = reg.Info("empart_phase",
		"innermost algorithm phase currently executing", "name")
	m.phaseLevel = reg.Gauge("empart_phase_depth",
		"nesting depth of the live phase stack")
	m.phaseStarts = reg.CounterVec("empart_phase_started_total",
		"phase spans started, by phase name", "phase")
	return m
}

// Registry returns the registry the instruments live on.
func (m *IOMetrics) Registry() *metrics.Registry { return m.reg }

// Snapshot captures every metric on the registry.
func (m *IOMetrics) Snapshot() metrics.Snapshot { return m.reg.Snapshot() }

// storeMetrics binds the physical-layer handles of one fileStore, recorded
// by the goroutine driving its disk as transfers complete.
type storeMetrics struct {
	physReads   *metrics.CounterHandle
	physWrites  *metrics.CounterHandle
	physReadNS  *metrics.HistogramHandle
	physWriteNS *metrics.HistogramHandle

	writeRunBlocks *metrics.HistogramHandle // blocks per coalesced positioned write
	readRunBlocks  *metrics.HistogramHandle // blocks per coalesced prefetch read

	// io_uring backend instruments, recorded at submission time (zero-valued
	// histograms when the ring is not armed).
	uringSQEBatch *metrics.HistogramHandle // SQEs handed to the kernel per enter
	uringInflight *metrics.HistogramHandle // submissions in flight at enter time

	prefetchHits   *metrics.CounterHandle
	prefetchMisses *metrics.CounterHandle
	extentReuses   *metrics.CounterHandle
	extentFrees    *metrics.CounterHandle

	queueDepth   *metrics.Gauge
	backingBytes *metrics.Gauge
}

// newStoreMetrics registers the physical-layer instruments and binds their
// handles.
func newStoreMetrics(m *IOMetrics) *storeMetrics {
	reg := m.reg
	return &storeMetrics{
		physReads: reg.Counter("empart_phys_reads_total",
			"positioned read syscalls issued to the backing file").Handle(),
		physWrites: reg.Counter("empart_phys_writes_total",
			"positioned write syscalls issued to the backing file").Handle(),
		physReadNS: reg.Histogram("empart_phys_read_ns",
			"latency of one positioned backing-file read", "ns").Handle(),
		physWriteNS: reg.Histogram("empart_phys_write_ns",
			"latency of one positioned backing-file write", "ns").Handle(),
		writeRunBlocks: reg.Histogram("empart_phys_write_run_blocks",
			"logical blocks retired per coalesced positioned write", "blocks").Handle(),
		readRunBlocks: reg.Histogram("empart_phys_read_run_blocks",
			"logical blocks fetched per coalesced prefetch read", "blocks").Handle(),
		uringSQEBatch: reg.Histogram("empart_uring_sqe_batch",
			"SQEs handed to the kernel per io_uring_enter", "sqes").Handle(),
		uringInflight: reg.Histogram("empart_uring_queue_depth",
			"ring submissions in flight at enter time", "sqes").Handle(),
		prefetchHits: reg.Counter("empart_prefetch_hits_total",
			"sequential reads served from a read-ahead staging buffer").Handle(),
		prefetchMisses: reg.Counter("empart_prefetch_misses_total",
			"reads that fell back to a direct positioned read").Handle(),
		extentReuses: reg.Counter("empart_extent_reuses_total",
			"block appends served from the free-extent list").Handle(),
		extentFrees: reg.Counter("empart_extent_frees_total",
			"block extents returned to the free list by releases").Handle(),
		queueDepth:   m.queueDepth,
		backingBytes: m.backingBytes,
	}
}
