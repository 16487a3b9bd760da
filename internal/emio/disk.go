package emio

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/emio/metrics"
)

// Disk is a simulated block device. It stores files as slices of blocks,
// counts every block transfer, and optionally injects faults for
// failure-path testing.
//
// A Disk is not safe for concurrent use; the EM model is sequential and so is
// every algorithm built on it. Config.Workers does not change that: the
// sorts' parallel in-memory sorting runs between block transfers, on memory
// the algorithm already holds, and never touches the disk.
type Disk struct {
	blockSize int
	store     blockStore
	stats     Stats

	// Fault hooks. When non-nil they are consulted on every transfer; a
	// non-nil return aborts the transfer with that error. The transfer is
	// still counted (a failed I/O is an I/O).
	readFault  func(f *File, block int) error
	writeFault func(f *File, block int) error

	fileSeq int64 // names for anonymous files

	// Disk-space accounting: the EM model's disk is unbounded, but scratch
	// footprint is a real resource; liveBlocks counts blocks of unreleased
	// files and peakLive its high-water mark.
	liveBlocks int64
	peakLive   int64

	// Read tracking, used by the executable adversary arguments: for a
	// tracked file, the set of distinct blocks ever read is recorded, which
	// bounds the number of input elements an algorithm has "seen" in the
	// sense of the paper's §2-§3 lower-bound proofs.
	tracked map[*File]map[int]bool

	// Live-file registry: every unreleased file, plus a running count of
	// the unreleased scratch files among them. The registry powers the
	// scratch-leak detector and the tracer's file-attribution columns.
	liveFiles   map[*File]struct{}
	liveScratch int

	// Live-metrics instruments; nil when metrics are disabled (the fast
	// path: one nil check per recording site). Strictly observational —
	// never touches stats, fault hooks or the store's logical state.
	iom *IOMetrics

	// Structured event log (see eventlog.go); logger is nil when logging is
	// disabled (one nil check per emission site). id names the disk in log
	// records; elog is an owned EventLog closed with the disk.
	id     string
	logger *slog.Logger
	elog   *EventLog

	// span is the innermost open span of the Ctx driving the disk, nil
	// outside all spans: stored by the algorithm goroutine at every span
	// boundary (enterSpan, exitSpan), read when a transfer records an
	// exemplar and by the event log's handler, which may run on any
	// goroutine. spanSeq numbers spans when no tracer supplies one.
	span    atomic.Pointer[Span]
	spanSeq int64

	// Resilience layer (all opt-in, see EnableChecksums/SetRetry/
	// SetInjector). checksum arms per-block CRC32C verification; retry is
	// the bounded-retry policy applied to physical transfers; inj is the
	// physical fault injector consulted below the retry layer. Both are read
	// on the goroutine driving the disk; configure retry before I/O starts.
	// inj is atomic because fault harnesses legitimately attach and detach
	// it from another goroutine mid-run.
	checksum bool
	retry    *retrier
	inj      atomic.Pointer[Injector]

	// Job-lifecycle state: the cooperative cancellation cell (see cancel.go)
	// and the disk-byte accountant (see resource.go), both allocated by the
	// constructors.
	cancel *cancelCell
	budget *diskBudget
}

// ErrReleased is returned when accessing a File whose storage was released.
var ErrReleased = errors.New("emio: file has been released")

// diskSeq numbers disks process-wide for log attribution.
var diskSeq atomic.Int64

// NewDisk creates a memory-backed disk with the given block size in
// elements.
func NewDisk(blockSize int) *Disk {
	if blockSize < 1 {
		panic(fmt.Sprintf("emio.NewDisk: block size %d < 1", blockSize))
	}
	return &Disk{blockSize: blockSize, store: newMemStore(),
		id:     fmt.Sprintf("mem-%d", diskSeq.Add(1)),
		cancel: &cancelCell{}, budget: &diskBudget{}}
}

// NewFileBackedDisk creates a disk whose blocks live in a real file at path
// (created or truncated), so every counted block moves through an actual
// positioned read or write of 16-byte records, staged and coalesced by the
// I/O engine. Close the disk when done.
func NewFileBackedDisk(path string, blockSize int) (*Disk, error) {
	return NewFileBackedDiskPipeline(path, blockSize, Pipeline{})
}

// NewFileBackedDiskPipeline is NewFileBackedDisk with the physical layer
// configured by p (O_DIRECT, io_uring). p changes only how physical
// transfers reach the device (wall-clock speed); logical I/O counters, fault
// hooks, tracing and outputs are bit-identical to the memory backend's.
func NewFileBackedDiskPipeline(path string, blockSize int, p Pipeline) (*Disk, error) {
	return newFileBackedDisk(path, blockSize, p, engineDepths, false)
}

// NewFileBackedDiskResume is NewFileBackedDiskPipeline without the truncate:
// it opens an existing backing file in place, for crash-resume. The caller
// must re-adopt journaled manifests with AdoptFile before performing writes —
// until adoption raises the append cursor, fresh allocations would land on
// the old data.
func NewFileBackedDiskResume(path string, blockSize int, p Pipeline) (*Disk, error) {
	return newFileBackedDisk(path, blockSize, p, engineDepths, true)
}

func newFileBackedDisk(path string, blockSize int, p Pipeline, dep depths, keep bool) (*Disk, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("emio: block size %d < 1", blockSize)
	}
	d := &Disk{blockSize: blockSize, cancel: &cancelCell{}, budget: &diskBudget{}}
	st, err := newFileStore(d, path, p, dep, keep)
	if err != nil {
		return nil, err
	}
	d.store = st
	d.id = fmt.Sprintf("file-%d", diskSeq.Add(1))
	return d, nil
}

// BackingBytes returns the high-water byte size of the store's backing file
// (the append cursor, which free-extent reuse keeps close to the peak live
// footprint); 0 for memory-backed disks.
func (d *Disk) BackingBytes() int64 {
	if s, ok := d.store.(*fileStore); ok {
		return s.backingBytes()
	}
	return 0
}

// FreeExtents returns the number of released block extents currently
// available for reuse in the backing file; 0 for memory-backed disks.
func (d *Disk) FreeExtents() int64 {
	if s, ok := d.store.(*fileStore); ok {
		return s.freeExtents()
	}
	return 0
}

// PhysStats returns the cumulative count of physical transfers (positioned
// reads and writes, by syscall or io_uring) issued to the backing file; zero
// for memory-backed disks. Logical Stats count every block; PhysStats counts
// the engine's coalesced transfers, so it is lower by the coalescing factor,
// except under a fault injector, which gets one transfer per block.
func (d *Disk) PhysStats() Stats {
	if s, ok := d.store.(*fileStore); ok {
		return Stats{Reads: s.physR.Load(), Writes: s.physW.Load()}
	}
	return Stats{}
}

// UringActive reports whether the disk's physical transfers are going through
// an io_uring: Pipeline.Uring was requested, the kernel passed the
// UringSupported probe, and ring setup succeeded. False for memory-backed
// disks and wherever the knob silently degraded to the syscall paths.
func (d *Disk) UringActive() bool {
	s, ok := d.store.(*fileStore)
	return ok && s.ring != nil
}

// EnableMetrics attaches live telemetry instruments registered on reg to
// the disk's hot paths: logical and physical transfer counters, latency
// histograms, queue-depth and footprint gauges, prefetch and extent-reuse
// counters. Several disks may share one registry; counters then accumulate
// across them. Like the tracer, metrics are strictly observational: logical
// Stats, trace JSON, fault-hook order and all outputs are bit-identical with
// metrics on or off. Enable before the hot loops start; nil detaches.
func (d *Disk) EnableMetrics(reg *metrics.Registry) *IOMetrics {
	fs, _ := d.store.(*fileStore)
	if reg == nil {
		d.iom = nil
		if fs != nil {
			fs.setMetrics(nil)
		}
		if d.retry != nil {
			d.retry.m.Store(nil)
		}
		return nil
	}
	m := newIOMetrics(reg)
	d.iom = m
	if fs != nil {
		fs.setMetrics(m)
	}
	if d.retry != nil {
		d.retry.m.Store(newRetryMetrics(reg))
	}
	// Seed the footprint gauges so a scrape right after enabling sees the
	// current state rather than zeros.
	m.liveBlocks.Set(d.liveBlocks)
	m.liveScratch.Set(int64(d.liveScratch))
	m.backingBytes.Set(d.BackingBytes())
	return m
}

// Metrics returns the live instrument bundle, nil when metrics are disabled.
func (d *Disk) Metrics() *IOMetrics { return d.iom }

// ID returns the disk's diagnostic identity, as carried by log records.
func (d *Disk) ID() string { return d.id }

// Close releases backend resources (the backing file for file-backed disks;
// a no-op for memory-backed ones) and closes an owned event log's file sink.
// Teardown failures are joined, never masked: a sticky write-behind error
// surfacing here is reported alongside — not instead of — a log-sink failure.
func (d *Disk) Close() error {
	err := d.store.close()
	if d.elog != nil {
		d.log(slog.LevelDebug, "disk closed")
		err = joinErr(err, d.elog.Close())
	}
	return err
}

// SyncBacking writes out every staged block and fsyncs the backing file:
// the durability barrier the checkpoint layer places before journaling a
// phase record. A no-op (nil) for memory-backed disks.
func (d *Disk) SyncBacking() error {
	if s, ok := d.store.(*fileStore); ok {
		return s.syncBacking()
	}
	return nil
}

// StartBackingFlusher launches a goroutine that nudges the kernel every
// interval to start writing the backing file's dirty pages to the device
// (sync_file_range, asynchronous — never an fsync, which would stall the
// writer). The device thus absorbs each phase's output concurrently with
// the computation, and the checkpoint layer's FullSync durability barriers
// (SyncBacking) wait only for writeback already in flight instead of
// flushing a whole phase's output cold — this is what keeps the power-loss
// grade's wall overhead at roughly the device's bandwidth deficit rather
// than a per-barrier stall. Strictly physical: logical I/O accounting,
// outputs and traces are untouched, and durability never depends on the
// flusher (the barrier fsync is the guarantee). The returned stop function
// halts the flusher; for memory-backed disks it is a no-op.
func (d *Disk) StartBackingFlusher(interval time.Duration) (stop func()) {
	s, ok := d.store.(*fileStore)
	if !ok {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				s.kickBackingWriteback()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// BlockSize returns the block size B in elements.
func (d *Disk) BlockSize() int { return d.blockSize }

// Stats returns a snapshot of the I/O counters.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the I/O counters. Benchmarks call this after building
// their inputs so that only the algorithm under test is measured.
func (d *Disk) ResetStats() { d.stats = Stats{} }

// EnableChecksums arms per-block CRC32C checksums: every block append
// records the checksum of its on-disk image in a memory-resident sidecar,
// and every read verifies the decoded payload against it, returning a
// *CorruptionError on mismatch. Enable before files hold data — blocks
// written earlier have no recorded sum and are read unverified. Checksums
// never change logical accounting, outputs or trace JSON.
func (d *Disk) EnableChecksums() { d.checksum = true }

// ChecksumsEnabled reports whether per-block checksum verification is armed.
func (d *Disk) ChecksumsEnabled() bool { return d.checksum }

// SetRetry installs the bounded-retry policy for physical transfers. A
// policy with MaxAttempts <= 1 removes it (single attempt per transfer;
// transient failures then still surface as typed *TransientError).
// Configure before I/O starts.
func (d *Disk) SetRetry(pol Retry) {
	if !pol.Enabled() {
		d.retry = nil
		return
	}
	r := newRetrier(pol)
	if d.iom != nil {
		r.m.Store(newRetryMetrics(d.iom.reg))
	}
	d.retry = r
}

// RetryStats returns the retry layer's counters (zero when no policy is
// installed).
func (d *Disk) RetryStats() RetryStats {
	if d.retry == nil {
		return RetryStats{}
	}
	return d.retry.stats()
}

// retryCount returns retried attempts so far, for trace-span deltas.
func (d *Disk) retryCount() int64 {
	if d.retry == nil {
		return 0
	}
	return d.retry.retries.Load()
}

// SetInjector installs (or, with nil, removes) a physical fault injector,
// consulted by every backing transfer below the retry layer. Harness-side;
// configure before I/O starts.
func (d *Disk) SetInjector(inj *Injector) {
	d.inj.Store(inj)
	if inj != nil {
		d.log(slog.LevelDebug, "fault injector armed")
	} else {
		d.log(slog.LevelDebug, "fault injector removed")
	}
}

// Injector returns the installed fault injector, nil when none is armed.
func (d *Disk) Injector() *Injector { return d.inj.Load() }

// blockCorrupter is the optional store capability behind Disk.CorruptBlock.
type blockCorrupter interface {
	corruptBlock(f *File, i, bit int) error
}

// CorruptBlock flips one bit of the stored image of block i of f, modeling
// at-rest corruption (bit rot, a torn sector). bit indexes the block's
// on-disk little-endian image, so bit 0 is the lowest bit of the first
// element's Key. Harness-side like BuildFile: the flip bypasses I/O
// accounting, fault hooks and the injector. On file stores the staged
// writes of f are written out first (their sticky error, if any, is
// returned). A block reclaimed by ReleasePrefix fails with ErrReleased.
func (d *Disk) CorruptBlock(f *File, i, bit int) error {
	if f.released {
		return fmt.Errorf("%w (%s)", ErrReleased, f.name)
	}
	if i < 0 || i >= f.nblocks {
		return fmt.Errorf("%w: block %d of %d in %s", ErrBlockRange, i, f.nblocks, f.name)
	}
	if i < f.freed {
		return fmt.Errorf("%w: block %d of %s consumed by ReleasePrefix", ErrReleased, i, f.name)
	}
	if nbits := f.blockLen(i) * elemBytes * 8; bit < 0 || bit >= nbits {
		return fmt.Errorf("emio: corrupt %s block %d: bit %d out of range [0,%d)", f.name, i, bit, nbits)
	}
	c, ok := d.store.(blockCorrupter)
	if !ok {
		return fmt.Errorf("emio: store %T cannot corrupt blocks", d.store)
	}
	d.log(slog.LevelWarn, "block corrupted at rest (harness)",
		slog.String("file", f.name), slog.Int("block", i), slog.Int("bit", bit))
	return c.corruptBlock(f, i, bit)
}

// SetReadFault installs (or, with nil, removes) a read fault hook.
func (d *Disk) SetReadFault(hook func(f *File, block int) error) { d.readFault = hook }

// SetWriteFault installs (or, with nil, removes) a write fault hook.
func (d *Disk) SetWriteFault(hook func(f *File, block int) error) { d.writeFault = hook }

// LiveBlocks returns the number of blocks currently held by unreleased
// files: the live disk footprint.
func (d *Disk) LiveBlocks() int64 { return d.liveBlocks }

// PeakLiveBlocks returns the high-water mark of the live disk footprint —
// the scratch space an algorithm really needed. ResetPeakLive lowers it to
// the current level so one phase can be measured in isolation.
func (d *Disk) PeakLiveBlocks() int64 { return d.peakLive }

// ResetPeakLive lowers the disk-footprint high-water mark to current usage.
func (d *Disk) ResetPeakLive() { d.peakLive = d.liveBlocks }

// RaisePeakLive lifts the disk-footprint high-water mark to at least v
// (never lowers it). The tracer uses it to restore an enclosing span's
// scoped peak.
func (d *Disk) RaisePeakLive(v int64) {
	if v > d.peakLive {
		d.peakLive = v
	}
}

// noteAlloc and noteFree maintain the footprint counters.
func (d *Disk) noteAlloc(blocks int64) {
	d.liveBlocks += blocks
	if d.liveBlocks > d.peakLive {
		d.peakLive = d.liveBlocks
	}
	if d.iom != nil {
		d.iom.liveBlocks.Set(d.liveBlocks)
	}
}

func (d *Disk) noteFree(blocks int64) {
	d.liveBlocks -= blocks
	if d.iom != nil {
		d.iom.liveBlocks.Set(d.liveBlocks)
	}
}

// TrackReads starts recording which distinct blocks of f are read. Used by
// the adversary-argument tests: an algorithm that has read r blocks of the
// input has seen at most r*B of its elements.
func (d *Disk) TrackReads(f *File) {
	if d.tracked == nil {
		d.tracked = make(map[*File]map[int]bool)
	}
	d.tracked[f] = make(map[int]bool)
}

// BlocksSeen returns how many distinct blocks of a tracked file have been
// read since TrackReads (zero for untracked files).
func (d *Disk) BlocksSeen(f *File) int {
	return len(d.tracked[f])
}

// noteRead records a block read for tracked files.
func (d *Disk) noteRead(f *File, block int) {
	if set, ok := d.tracked[f]; ok {
		set[block] = true
	}
}

// NewFile creates an empty file on the disk. The name is used only in error
// messages; an empty name is replaced by a generated one.
func (d *Disk) NewFile(name string) *File {
	if name == "" {
		d.fileSeq++
		name = fmt.Sprintf("file-%d", d.fileSeq)
	}
	f := &File{disk: d, name: name}
	if d.liveFiles == nil {
		d.liveFiles = make(map[*File]struct{})
	}
	d.liveFiles[f] = struct{}{}
	return f
}

// markScratch tags a freshly created file as algorithm scratch (called by
// Ctx.Scratch) so the leak detector can tell scratch from harness-staged
// inputs and so the tracer can count scratch traffic per span.
func (d *Disk) markScratch(f *File) {
	f.scratch = true
	d.liveScratch++
	if d.iom != nil {
		d.iom.liveScratch.Set(int64(d.liveScratch))
	}
	d.log(slog.LevelDebug, "scratch file created",
		slog.String("file", f.name), slog.Int("live_scratch", d.liveScratch))
}

// noteRelease removes a file from the live registry (called by File.Release).
func (d *Disk) noteRelease(f *File) {
	delete(d.liveFiles, f)
	if f.scratch {
		d.liveScratch--
		if d.iom != nil {
			d.iom.liveScratch.Set(int64(d.liveScratch))
		}
		d.log(slog.LevelDebug, "scratch file released",
			slog.String("file", f.name), slog.Int("blocks", f.nblocks),
			slog.Int("live_scratch", d.liveScratch))
	}
}

// LiveFiles returns the diagnostic names of every live (created and not yet
// released) file, sorted. Harness-staged inputs count as live files; scratch
// files appear with their "scratch-" prefixed tags.
func (d *Disk) LiveFiles() []string {
	out := make([]string, 0, len(d.liveFiles))
	for f := range d.liveFiles {
		out = append(out, f.name)
	}
	slices.Sort(out)
	return out
}

// LiveScratchFiles returns the names of the live files created through
// Ctx.Scratch, sorted: after a top-level algorithm has returned and its
// outputs have been released, this list is exactly the set of leaked scratch
// files, and should be empty.
func (d *Disk) LiveScratchFiles() []string {
	var out []string
	for f := range d.liveFiles {
		if f.scratch {
			out = append(out, f.name)
		}
	}
	slices.Sort(out)
	return out
}

// ScratchSnapshot captures the set of currently live scratch files. Paired
// with ReleaseScratchSince it is the facade's error-path teardown guard: an
// algorithm that fails (cancellation, quota, a device fault) abandons its
// scratch mid-phase, and the guard releases exactly the files created since
// the snapshot.
func (d *Disk) ScratchSnapshot() map[*File]struct{} {
	snap := make(map[*File]struct{})
	for f := range d.liveFiles {
		if f.scratch {
			snap[f] = struct{}{}
		}
	}
	return snap
}

// ReleaseScratchSince releases every live scratch file not present in a
// ScratchSnapshot taken earlier, returning how many were reclaimed.
func (d *Disk) ReleaseScratchSince(snap map[*File]struct{}) int {
	var doomed []*File
	for f := range d.liveFiles {
		if f.scratch {
			if _, ok := snap[f]; !ok {
				doomed = append(doomed, f)
			}
		}
	}
	for _, f := range doomed {
		f.Release()
	}
	return len(doomed)
}
