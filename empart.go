// Package empart is a library for finding approximate partitions and
// splitters in external memory, reproducing:
//
//	Xiaocheng Hu, Yufei Tao, Yi Yang, Shuigeng Zhou.
//	"Finding Approximate Partitions and Splitters in External Memory."
//	SPAA 2014.
//
// The library runs on a simulated external-memory machine (memory of M
// elements, disk blocks of B elements, cost = block transfers) and provides
// I/O-optimal algorithms for:
//
//   - approximate K-splitters and approximate K-partitioning, in their
//     right-grounded, left-grounded and two-sided regimes (Theorems 5 and 6);
//   - multi-selection in O((N/B) lg_{M/B}(K/B)) I/Os (Theorem 4);
//   - the substrates: multi-partition (Aggarwal-Vitter), L-intermixed
//     selection (§4.1), exact selection, external merge sort;
//   - the §3 reduction from precise to approximate partitioning;
//   - the lower-bound formulas and information-theoretic floors of
//     Theorems 1-3 (package internal/bounds, surfaced via Machine);
//   - an equi-depth histogram application.
//
// # Quickstart
//
//	sys, _ := empart.New(empart.Config{M: 1 << 20, B: 1 << 7})
//	f := sys.Stage(elems) // stage data (uncounted harness I/O)
//	sys.ResetStats()
//	sp, _ := sys.Splitters(f, empart.Params{K: 16, A: 100, B: 1 << 40})
//	fmt.Println(sys.Stats()) // block I/Os the algorithm performed
//
// Elements are (Key, Aux) pairs ordered lexicographically; give every
// element a distinct Aux (e.g. its position) so the order is total.
package empart

import (
	"context"
	"sync"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/distsort"
	"repro/internal/emio"
	"repro/internal/emio/metrics"
	"repro/internal/emsel"
	"repro/internal/extsort"
	"repro/internal/histogram"
	"repro/internal/mpart"
	"repro/internal/msel"
)

// Re-exported foundation types.
type (
	// Elem is the record type: an ordered Key and an Aux word that makes
	// records unique (and can carry a payload).
	Elem = emio.Elem
	// Config fixes the EM machine: M elements of memory, blocks of B
	// elements, M >= 2B.
	Config = emio.Config
	// Pipeline configures the asynchronous prefetch/write-behind physical-I/O
	// pipeline of file-backed systems (Config.Pipeline). It never changes
	// logical I/O counts.
	Pipeline = emio.Pipeline
	// Retry configures bounded retry of transient physical-I/O failures
	// (Config.Retry): attempts, exponential backoff, deterministic jitter.
	Retry = emio.Retry
	// RetryStats is a snapshot of the retry layer's counters
	// (System.RetryStats).
	RetryStats = emio.RetryStats
	// CorruptionError reports a block whose content fails CRC32C
	// verification (Config.Checksum), naming file, block, offset and both
	// sums. Match with errors.As.
	CorruptionError = emio.CorruptionError
	// TransientError reports a transfer that stayed transiently failing
	// after the retry budget (or with retry disabled). Match with errors.As.
	TransientError = emio.TransientError
	// FaultError attributes any other physical failure to a file, block and
	// backing offset. Match with errors.As.
	FaultError = emio.FaultError
	// CancelledError reports an operation abandoned by cooperative
	// cancellation (System.Cancel, a bound context, a signal trap), carrying
	// the cause. Match with errors.As, or errors.Is against ErrCancelled.
	CancelledError = emio.CancelledError
	// ResourceError reports a resource quota violation or exhaustion — the
	// disk-byte budget (Config.DiskBudget) rejecting an append, or a real
	// ENOSPC from the backing device — with live usage figures. Match with
	// errors.As, or errors.Is against ErrDiskBudget for quota rejections.
	ResourceError = emio.ResourceError
	// FileManifest is the durable description of a file's on-disk layout
	// used by checkpoint journals and resume adoption.
	FileManifest = emio.FileManifest
	// SortCheckpoint is the phase journal of a crash-safe sort job; see
	// OpenSortJob.
	SortCheckpoint = extsort.Checkpoint
	// Injector is a deterministic physical-fault schedule for resilience
	// testing; install with System.SetInjector.
	Injector = emio.Injector
	// InjectorStats counts what an Injector saw and did.
	InjectorStats = emio.InjectorStats
	// Stats is a snapshot of block-I/O counters.
	Stats = emio.Stats
	// File is a sequence of elements on the simulated disk.
	File = emio.File
	// Disk is the simulated disk itself: block store plus counters. Exposed
	// for advanced harness use (System.Ctx().Disk()).
	Disk = emio.Disk
	// Params carries (K, A, B): partition count and the admissible size
	// range [A, B] for the approximate problems.
	Params = core.Params
	// PartitionResult is a concatenated partitioning with its sizes.
	PartitionResult = core.PartitionResult
	// Variant names a parameter regime (right-grounded, left-grounded,
	// two-sided).
	Variant = core.Variant
	// Machine evaluates the paper's bound formulas for an (M, B) machine.
	Machine = bounds.Machine
	// HistogramBucket is one bucket of an equi-depth histogram.
	HistogramBucket = histogram.Bucket
	// Tracer collects a tree of phase spans with per-span I/O, memory-peak
	// and disk-footprint attribution. Attach one with System.SetTracer.
	Tracer = emio.Tracer
	// Span is one node of the trace tree: a named phase with counters.
	Span = emio.Span
	// MetricsRegistry holds live telemetry instruments (counters, gauges,
	// latency histograms). Attach one with System.SetMetrics; serve it with
	// metrics.Serve or scrape it with Registry.WritePrometheus.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every metric on a registry.
	MetricsSnapshot = metrics.Snapshot
	// LogConfig arms the structured event log (Config.Log): ring capacity,
	// level, JSON-lines path, extra handler.
	LogConfig = emio.LogConfig
	// EventLog is the span-aware structured log sink; attach one with
	// System.EnableLog or Config.Log.
	EventLog = emio.EventLog
	// LogEvent is one record of the event log's in-memory ring.
	LogEvent = emio.Event
)

// ShardReport is the zero-value stub left by the retired sharded engine:
// System.ShardReport always returns ShardReport{}. It stays only because the
// benchmark reads its two fields.
type ShardReport struct {
	Workers    int     // always 0
	ShardBytes []int64 // always nil
}

// Re-exported variant constants.
const (
	RightGrounded = core.RightGrounded
	LeftGrounded  = core.LeftGrounded
	TwoSided      = core.TwoSided
)

// Re-exported error marks of the resilience layer: ErrTransient marks
// retryable physical failures; ErrInjected marks faults produced by an
// Injector. Both are matched with errors.Is.
var (
	ErrTransient = emio.ErrTransient
	ErrInjected  = emio.ErrInjected
	// ErrCancelled marks every CancelledError; errors.Is(err, ErrCancelled)
	// recognizes a cooperatively cancelled operation whatever the cause.
	ErrCancelled = emio.ErrCancelled
	// ErrDiskBudget marks ResourceErrors raised by the configured disk-byte
	// quota (as opposed to real device exhaustion).
	ErrDiskBudget = emio.ErrDiskBudget
)

// System is an external-memory machine instance: a simulated disk with I/O
// accounting, a memory-budget accountant armed at M, and the algorithm
// suite. A System is not safe for concurrent use (the EM model is
// sequential). With cfg.Workers >= 2, Sort, SortJob and DistributionSort sort
// their in-memory runs and base cases on that many goroutines and join them
// before the sort goes on; outputs, Stats, peak memory and traces are the
// same as with Workers = 0. Every other algorithm ignores Workers.
type System struct {
	ctx *emio.Ctx
}

// New creates a System for the given machine configuration, with blocks held
// in host memory.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return open(cfg, emio.NewDisk(cfg.B), nil)
}

// NewFileBacked creates a System whose simulated disk is backed by a real
// file at path (created or truncated): every counted block moves through an
// actual positioned read or write. Call Close when done.
//
// The backing file runs the I/O engine: appends are staged into batches,
// each written with one positioned write per run of adjacent blocks, and
// sequential scans read ahead with coalesced positioned reads. Transfers run
// on the goroutine driving the System, or through an io_uring when
// cfg.Pipeline.Uring is set, which lets them overlap computation. The engine
// affects physical transfers and wall-clock speed only — Stats, trace spans,
// fault-hook order and all outputs are the same as on the memory backend.
func NewFileBacked(cfg Config, path string) (*System, error) {
	d, err := emio.NewFileBackedDiskPipeline(path, cfg.B, cfg.Pipeline)
	return open(cfg, d, err)
}

// NewFileBackedResume creates a System over an EXISTING backing file at
// path, preserved rather than truncated, for crash recovery: the disk starts
// with an empty allocator, and the caller re-attaches surviving data by
// adopting journaled manifests (Disk.AdoptFile) before any new writes. Used
// by OpenSortJob with Resume set; most callers want that entry point rather
// than this one.
func NewFileBackedResume(cfg Config, path string) (*System, error) {
	d, err := emio.NewFileBackedDiskResume(path, cfg.B, cfg.Pipeline)
	return open(cfg, d, err)
}

// open builds a System over d, the disk a constructor opened (or failed to
// open, with err). It closes d on every error path, and with it any
// event-log file sink that cfg.Log attached.
func open(cfg Config, d *emio.Disk, err error) (*System, error) {
	if err != nil {
		return nil, err
	}
	ctx, err := emio.NewCtxWithDisk(cfg, d)
	if err != nil {
		d.Close()
		return nil, err
	}
	return &System{ctx: ctx}, nil
}

// Close releases backend resources (the backing file for file-backed
// systems; a no-op otherwise).
func (s *System) Close() error { return s.ctx.Disk().Close() }

// Cancel requests cooperative cancellation of whatever operation is running
// (or runs next) on this System, recording cause. The first block transfer
// to observe the flag — a logical transfer or a physical retry attempt,
// both on the goroutine running the operation — abandons the operation,
// which returns a *CancelledError wrapping cause within about one
// block-transfer latency.
// Safe to call from any goroutine, including signal handlers; the first
// cause wins and later calls are no-ops. The System stays cancelled (every
// subsequent operation fails immediately) until ClearCancel.
func (s *System) Cancel(cause error) { s.ctx.Disk().Cancel(cause) }

// ClearCancel re-arms a cancelled System for further operations.
func (s *System) ClearCancel() { s.ctx.Disk().ClearCancel() }

// BindContext ties the System's cancellation to a context: when ctx is
// cancelled, System.Cancel fires with the context's cause. It returns a stop
// function that detaches the watcher: always call it, typically as
// defer sys.BindContext(ctx)() around an operation, which then returns a
// *CancelledError wrapping the context's cause when ctx is cancelled. A
// context that can never be cancelled binds nothing and costs nothing.
func (s *System) BindContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	// An already-dead context cancels synchronously: the first logical I/O
	// after binding must observe it, without racing the watcher's wakeup.
	if ctx.Err() != nil {
		s.Cancel(context.Cause(ctx))
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.Cancel(context.Cause(ctx))
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// DiskBudget returns the configured disk-byte quota, 0 when unbounded.
func (s *System) DiskBudget() int64 { return s.ctx.Disk().DiskBudget() }

// DiskBytes returns the bytes currently charged against the disk budget
// (live blocks times B·16).
func (s *System) DiskBytes() int64 { return s.ctx.Disk().DiskBytes() }

// Ctx exposes the underlying context for advanced use (direct access to the
// internal packages).
func (s *System) Ctx() *emio.Ctx { return s.ctx }

// Config returns the machine configuration.
func (s *System) Config() Config { return s.ctx.Config() }

// Machine returns the bound calculator for this configuration.
func (s *System) Machine() Machine {
	return Machine{M: int64(s.ctx.M()), B: int64(s.ctx.B())}
}

// Stats returns the I/O counters.
func (s *System) Stats() Stats { return s.ctx.Disk().Stats() }

// ResetStats zeroes the I/O counters; call it after staging inputs so only
// the algorithms are measured.
func (s *System) ResetStats() { s.ctx.Disk().ResetStats() }

// ShardReport returns the zero ShardReport: no algorithm shards its input.
func (s *System) ShardReport() ShardReport { return ShardReport{} }

// PeakMemory returns the high-water mark of the memory accountant.
func (s *System) PeakMemory() int64 { return s.ctx.Mem().Peak() }

// LiveDiskBlocks returns the blocks currently held by unreleased files.
func (s *System) LiveDiskBlocks() int64 { return s.ctx.Disk().LiveBlocks() }

// PeakDiskBlocks returns the high-water mark of the disk footprint: the
// scratch space the algorithms really used. ResetPeakDisk lowers it to the
// current level so a single phase can be measured.
func (s *System) PeakDiskBlocks() int64 { return s.ctx.Disk().PeakLiveBlocks() }

// ResetPeakDisk lowers the disk-footprint high-water mark to current usage.
func (s *System) ResetPeakDisk() { s.ctx.Disk().ResetPeakLive() }

// BackingBytes returns the high-water byte size of the backing file for
// file-backed systems (released extents are reused, so this tracks the peak
// live footprint, not cumulative writes); 0 for in-memory systems.
func (s *System) BackingBytes() int64 { return s.ctx.Disk().BackingBytes() }

// PhysStats returns the cumulative physical transfer counts (positioned
// read/write syscalls on the backing file) for file-backed systems; zero for
// in-memory systems. Compare with Stats to see the pipeline's coalescing:
// logical counts are invariant, physical counts drop when it is on.
func (s *System) PhysStats() Stats { return s.ctx.Disk().PhysStats() }

// UringActive reports whether this system's backing store is issuing its
// physical transfers through an armed io_uring (Pipeline.Uring requested and
// the kernel probe passed). False for memory disks, non-Linux builds and
// kernels without io_uring — on those the same Pipeline config degrades
// silently to positioned read/write syscalls with no logical behavior change.
func (s *System) UringActive() bool { return s.ctx.Disk().UringActive() }

// UringSupported reports whether this kernel and platform can run the
// io_uring physical backend (probed once per process, like the O_DIRECT
// probe). When false, Pipeline.Uring is accepted but inert.
func UringSupported() bool { return emio.UringSupported() }

// DirectIOSupported reports whether files under dir accept O_DIRECT, by
// probing once per call. When false, Pipeline.Direct is accepted but inert.
func DirectIOSupported(dir string) bool { return emio.DirectIOSupported(dir) }

// RetryStats returns the retry layer's counters: transient attempts retried,
// transfers given up on, and total backoff slept. All zero unless Config.Retry
// is armed and transient faults actually occurred.
func (s *System) RetryStats() RetryStats { return s.ctx.Disk().RetryStats() }

// SetInjector installs (or, with nil, removes) a deterministic physical
// fault injector on the system's disk, for resilience testing. Install after
// staging inputs and before the algorithm runs.
func (s *System) SetInjector(inj *Injector) { s.ctx.Disk().SetInjector(inj) }

// NewInjector creates an idle fault injector with the given probabilistic
// seed; script it with FailRead/FailWrite or arm Probabilistic.
func NewInjector(seed uint64) *Injector { return emio.NewInjector(seed) }

// CorruptBlock flips one bit of the stored image of block i of f, modeling
// at-rest corruption. Harness-side like Stage: no I/O is charged and no
// fault hook fires. With Config.Checksum armed, the next read of the block
// fails with a *CorruptionError.
func (s *System) CorruptBlock(f *File, block, bit int) error {
	return s.ctx.Disk().CorruptBlock(f, block, bit)
}

// NewTracer creates a standalone phase tracer, for sharing one tracer across
// several Systems or inspecting spans programmatically.
func NewTracer() *Tracer { return emio.NewTracer() }

// SetTracer attaches (or, with nil, detaches) a phase tracer. While a tracer
// is attached, every algorithm call records a tree of phase spans with
// per-span block-I/O deltas, scoped memory and disk-footprint peaks, and
// scratch-file accounting. With no tracer attached the instrumentation is a
// nil-pointer fast path: no I/O, memory or randomness behavior changes.
func (s *System) SetTracer(t *Tracer) { s.ctx.SetTracer(t) }

// Tracer returns the attached tracer, or nil.
func (s *System) Tracer() *Tracer { return s.ctx.Tracer() }

// NewMetricsRegistry creates an empty metrics registry, for sharing one
// scrape endpoint across several Systems (instrument registration is
// idempotent by name; counters then accumulate across systems).
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// SetMetrics attaches live telemetry instruments registered on reg to the
// system's I/O hot paths: logical and physical transfer counters with latency
// histograms, queue-depth / footprint / phase gauges, prefetch and
// extent-reuse counters (all under the empart_ prefix). Like the tracer,
// metrics are strictly observational — logical Stats, trace JSON and all
// outputs are bit-identical with metrics on or off (the metrics parity suite
// proves it). Enable before the algorithm runs; nil detaches.
func (s *System) SetMetrics(reg *MetricsRegistry) { s.ctx.Disk().EnableMetrics(reg) }

// MetricsRegistry returns the attached registry, or nil when metrics are
// disabled.
func (s *System) MetricsRegistry() *MetricsRegistry {
	if m := s.ctx.Disk().Metrics(); m != nil {
		return m.Registry()
	}
	return nil
}

// EnableLog attaches a fresh event log built from cfg and returns it. The
// returned log's ring can be inspected with Events; its JSON-lines file sink
// (cfg.Path) is closed by System.Close.
func (s *System) EnableLog(cfg LogConfig) (*EventLog, error) {
	el, err := emio.NewEventLog(cfg)
	if err != nil {
		return nil, err
	}
	s.ctx.Disk().AttachEventLog(el)
	return el, nil
}

// EventLog returns the attached event log, or nil when none was created
// through EnableLog or Config.Log.
func (s *System) EventLog() *EventLog { return s.ctx.Disk().EventLog() }

// LiveFiles returns the names of all files currently live on the simulated
// disk (staged inputs and scratch files alike), sorted.
func (s *System) LiveFiles() []string { return s.ctx.Disk().LiveFiles() }

// LiveScratchFiles returns the names of live algorithm-created scratch files,
// sorted: nonempty after all outputs are released indicates a leak.
func (s *System) LiveScratchFiles() []string { return s.ctx.Disk().LiveScratchFiles() }

// Stage loads elements onto the disk as a new file without charging I/Os:
// the harness-side input channel. Algorithms producing files charge normally.
func (s *System) Stage(elems []Elem) *File {
	return emio.BuildFile(s.ctx.Disk(), "staged", elems)
}

// Read copies a file's contents back to host memory without charging I/Os:
// the harness-side output channel.
func (s *System) Read(f *File) []Elem { return f.Snapshot() }

// guard runs one algorithm operation with failure teardown: scratch files
// the operation created are released when it errors out, so a cancelled or
// quota-rejected job leaves no dangling disk footprint (the leak detector
// stays clean, and a long-lived process can keep using the System). Outputs
// only escape through the success path, so nothing reachable is released.
func guard[T any](s *System, fn func() (T, error)) (T, error) {
	snap := s.ctx.Disk().ScratchSnapshot()
	out, err := fn()
	if err != nil {
		s.ctx.Disk().ReleaseScratchSince(snap)
		var zero T
		return zero, err
	}
	return out, nil
}

// Sort external-merge-sorts f into a new file:
// O((N/B) lg_{M/B}(N/B)) I/Os. The baseline against which everything else is
// compared. With Workers >= 2 each run is sorted in memory on that many
// goroutines; the runs, the merges, the output, Stats and trace are the same
// at every worker count.
func (s *System) Sort(f *File) (*File, error) {
	return guard(s, func() (*File, error) {
		return extsort.Sort(s.ctx, f)
	})
}

// DistributionSort sorts f by Aggarwal-Vitter distribution (splitter-based
// scattering) instead of merging: the same Θ((N/B) lg_{M/B}(N/B)) bound,
// built on the paper's approximate-splitter machinery. With Workers >= 2 its
// in-memory base cases are sorted on that many goroutines, with the same
// output, Stats and trace as at Workers = 0.
func (s *System) DistributionSort(f *File) (*File, error) {
	return guard(s, func() (*File, error) {
		return distsort.Sort(s.ctx, f)
	})
}

// Select returns the element of the given 1-based rank in O(N/B) I/Os.
func (s *System) Select(f *File, rank int64) (Elem, error) {
	return guard(s, func() (Elem, error) {
		return emsel.Select(s.ctx, f, rank)
	})
}

// MultiSelect returns the elements of the given nondecreasing ranks, in rank
// order, in O((N/B) lg_{M/B}(K/B)) I/Os (Theorem 4).
func (s *System) MultiSelect(f *File, ranks []int64) (*File, error) {
	return guard(s, func() (*File, error) {
		return msel.Select(s.ctx, f, ranks)
	})
}

// MultiPartition divides f into partitions of the prescribed sizes
// (concatenated output) in O((N/B) lg_{M/B} K) I/Os: the Aggarwal-Vitter
// algorithm, and the baseline Theorem 4 separates multi-selection from.
func (s *System) MultiPartition(f *File, sizes []int64) (*File, error) {
	return guard(s, func() (*File, error) {
		return mpart.Partition(s.ctx, f, sizes)
	})
}

// Splitters solves approximate K-splitters (Theorem 5): K-1 elements of f
// whose induced buckets all have sizes in [p.A, p.B].
func (s *System) Splitters(f *File, p Params) (*File, error) {
	return guard(s, func() (*File, error) {
		return core.Splitters(s.ctx, f, p)
	})
}

// Partition solves approximate K-partitioning (Theorem 6): K order-respecting
// partitions with sizes in [p.A, p.B], concatenated.
func (s *System) Partition(f *File, p Params) (*PartitionResult, error) {
	return guard(s, func() (*PartitionResult, error) {
		return core.Partition(s.ctx, f, p)
	})
}

// PrecisePartition performs exact b-sized partitioning via the §3 reduction
// (approximate partitioning plus an O(N/B) re-chunking pass).
func (s *System) PrecisePartition(f *File, b int64) (*File, error) {
	return guard(s, func() (*File, error) {
		return core.PrecisePartitionViaApprox(s.ctx, f, b)
	})
}

// EquiDepthHistogram builds a K-bucket equi-depth histogram with asymmetric
// relative depth slack (lo below, hi above the ideal N/K); see package
// internal/histogram.
func (s *System) EquiDepthHistogram(f *File, k int, lo, hi float64) ([]HistogramBucket, error) {
	return guard(s, func() ([]HistogramBucket, error) {
		return histogram.EquiDepth(s.ctx, f, k, lo, hi)
	})
}
