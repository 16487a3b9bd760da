package emio

// Live-metrics wiring for the EM machine. An IOMetrics bundles the
// instruments the I/O hot paths record through: logical block reads/writes
// with latencies, physical transfers with latencies and coalesced-run sizes,
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
// Every transfer is recorded on the goroutine that drives the disk (ring
// submissions by the ring's one owner); only a Cancel from another goroutine
// bumps empart_job_cancels_total beside it. A scrape, the progress sampler
// and the OTLP writer read the instruments while the job records, which is
// why each is a set of atomics; see package metrics.

import "repro/internal/emio/metrics"

// IOMetrics is the live instrument bundle of one Disk. Create it by calling
// Disk.EnableMetrics with a registry; several Disks may share one registry
// (registration is idempotent and counters accumulate), which is how a
// multi-system benchmark serves a single scrape endpoint.
type IOMetrics struct {
	reg *metrics.Registry

	// Logical block transfers, recorded on the algorithm goroutine. The EM
	// model is sequential, so exactly one goroutine records these.
	logReads, logWrites   *metrics.Counter
	logReadNS, logWriteNS *metrics.Histogram
	corruptions           *metrics.Counter // checksum mismatches surfaced to readers

	// Job-lifecycle events: cooperative cancellations and disk-quota
	// rejections. A cancel is bumped by whichever goroutine calls Cancel (a
	// signal handler, say).
	cancels      *metrics.Counter
	quotaRejects *metrics.Counter

	// Gauges, updated by the goroutine that owns the underlying quantity.
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

// newIOMetrics registers the disk-level instruments on reg.
func newIOMetrics(reg *metrics.Registry) *IOMetrics {
	m := &IOMetrics{reg: reg}
	m.logReads = reg.Counter("empart_logical_reads_total",
		"logical block reads charged to the EM cost model")
	m.logWrites = reg.Counter("empart_logical_writes_total",
		"logical block writes charged to the EM cost model")
	m.logReadNS = reg.Histogram("empart_logical_read_ns",
		"latency of one logical block read, store roundtrip included", "ns")
	m.logWriteNS = reg.Histogram("empart_logical_write_ns",
		"latency of one logical block write (enqueue time under write-behind)", "ns")
	m.corruptions = reg.Counter("empart_corruption_detected_total",
		"block reads rejected by CRC32C checksum verification")
	m.cancels = reg.Counter("empart_job_cancels_total",
		"jobs cancelled cooperatively (signal, context, admission)")
	m.quotaRejects = reg.Counter("empart_disk_quota_rejections_total",
		"block appends rejected by the disk-byte budget")
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

// storeMetrics holds the physical-layer instruments of one fileStore,
// recorded by the goroutine driving its disk as transfers complete.
type storeMetrics struct {
	physReads   *metrics.Counter
	physWrites  *metrics.Counter
	physReadNS  *metrics.Histogram
	physWriteNS *metrics.Histogram

	writeRunBlocks *metrics.Histogram // blocks per coalesced positioned write
	readRunBlocks  *metrics.Histogram // blocks per coalesced prefetch read

	// io_uring backend instruments, recorded at submission time (zero-valued
	// histograms when the ring is not armed).
	uringSQEBatch *metrics.Histogram // SQEs handed to the kernel per enter
	uringInflight *metrics.Histogram // submissions in flight at enter time

	prefetchHits   *metrics.Counter
	prefetchMisses *metrics.Counter
	extentReuses   *metrics.Counter
	extentFrees    *metrics.Counter

	queueDepth   *metrics.Gauge
	backingBytes *metrics.Gauge
}

// newStoreMetrics registers the physical-layer instruments.
func newStoreMetrics(m *IOMetrics) *storeMetrics {
	reg := m.reg
	return &storeMetrics{
		physReads: reg.Counter("empart_phys_reads_total",
			"positioned read syscalls issued to the backing file"),
		physWrites: reg.Counter("empart_phys_writes_total",
			"positioned write syscalls issued to the backing file"),
		physReadNS: reg.Histogram("empart_phys_read_ns",
			"latency of one positioned backing-file read", "ns"),
		physWriteNS: reg.Histogram("empart_phys_write_ns",
			"latency of one positioned backing-file write", "ns"),
		writeRunBlocks: reg.Histogram("empart_phys_write_run_blocks",
			"logical blocks retired per coalesced positioned write", "blocks"),
		readRunBlocks: reg.Histogram("empart_phys_read_run_blocks",
			"logical blocks fetched per coalesced prefetch read", "blocks"),
		uringSQEBatch: reg.Histogram("empart_uring_sqe_batch",
			"SQEs handed to the kernel per io_uring_enter", "sqes"),
		uringInflight: reg.Histogram("empart_uring_queue_depth",
			"ring submissions in flight at enter time", "sqes"),
		prefetchHits: reg.Counter("empart_prefetch_hits_total",
			"sequential reads served from a read-ahead staging buffer"),
		prefetchMisses: reg.Counter("empart_prefetch_misses_total",
			"reads that fell back to a direct positioned read"),
		extentReuses: reg.Counter("empart_extent_reuses_total",
			"block appends served from the free-extent list"),
		extentFrees: reg.Counter("empart_extent_frees_total",
			"block extents returned to the free list by releases"),
		queueDepth:   m.queueDepth,
		backingBytes: m.backingBytes,
	}
}
