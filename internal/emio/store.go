package emio

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
)

// blockStore is the storage backend of a Disk. The default store keeps
// blocks in host memory; the file-backed store keeps them in a real file via
// block-aligned positioned reads and writes, so the simulated machine's
// transfers correspond to actual disk traffic. The store works in raw block
// payloads; all model bookkeeping (I/O counting, fault injection, sealing)
// stays in Disk/File.
type blockStore interface {
	// read copies block i of f into buf, returning the element count. seq
	// marks a sequential scan, which a pipelined store may serve from a
	// read-ahead window.
	read(f *File, i int, buf []Elem, seq bool) (int, error)
	// append stores a new block holding payload at index f.numBlocks.
	append(f *File, payload []Elem) error
	// release drops f's storage.
	release(f *File)
	// close releases backend resources (no-op for memory).
	close() error
}

// Optional store capabilities, discovered by interface assertion so that the
// core blockStore contract stays minimal.
type (
	// fileSyncer is implemented by stores with deferred physical writes;
	// syncFile blocks until every pending write of f has hit the backend and
	// reports the first physical failure among them.
	fileSyncer interface {
		syncFile(f *File) error
	}
	// prefixReleaser is implemented by stores with block-granular storage
	// reclamation; releaseRange drops the storage of f's blocks [lo, hi)
	// while the rest of the file stays readable (see File.ReleasePrefix).
	prefixReleaser interface {
		releaseRange(f *File, lo, hi int)
	}
)

// memStore keeps blocks as slices hanging off the File, recycling released
// block slices through a bounded per-disk free list so that scratch-heavy
// runs (merge passes, recursion) reuse memory instead of churning the GC.
// The free list is mutex-guarded so shard sub-disks (see shard.go) can share
// the store from worker goroutines; everything else the store touches hangs
// off the File being operated on.
type memStore struct {
	mu   sync.Mutex
	free [][]Elem
}

// maxMemFreeBlocks bounds the memStore free list; blocks released beyond it
// fall back to the GC. The bound only matters for pathological release
// storms — retention is otherwise capped by the disk's peak live footprint.
const maxMemFreeBlocks = 1 << 14

func newMemStore() *memStore { return &memStore{} }

func (s *memStore) read(f *File, i int, buf []Elem, _ bool) (int, error) {
	blk := f.mem[i]
	if cap(buf) < len(blk) {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), len(blk))
	}
	if d := f.disk; d.Injector() != nil {
		// Model the block copy as one physical transfer so the fault
		// injector (and the retry policy above it) applies to the memory
		// backend too. The offset is the block's dense-log position.
		off := int64(i) * int64(d.blockSize) * elemBytes
		if err := d.runPhys(opRead, f.name, off, func() error { return nil }); err != nil {
			return 0, storeReadError(f.name, off, err)
		}
	}
	return copy(buf[:len(blk)], blk), nil
}

func (s *memStore) append(f *File, payload []Elem) error {
	if d := f.disk; d.Injector() != nil {
		off := int64(len(f.mem)) * int64(d.blockSize) * elemBytes
		if err := d.runPhys(opWrite, f.name, off, func() error { return nil }); err != nil {
			return storeWriteError(f.disk, f.name, off, err)
		}
	}
	blk := s.takeBlock(len(payload), f.disk.blockSize)
	copy(blk, payload)
	f.mem = append(f.mem, blk)
	return nil
}

// takeBlock pops a recycled block slice of sufficient capacity off the free
// list, or allocates a fresh one.
func (s *memStore) takeBlock(n, blockSize int) []Elem {
	s.mu.Lock()
	if k := len(s.free); k > 0 && cap(s.free[k-1]) >= n {
		blk := s.free[k-1][:n]
		s.free[k-1], s.free = nil, s.free[:k-1]
		s.mu.Unlock()
		return blk
	}
	s.mu.Unlock()
	return make([]Elem, n, blockSize)
}

func (s *memStore) release(f *File) {
	s.mu.Lock()
	for _, blk := range f.mem {
		if len(s.free) < maxMemFreeBlocks && cap(blk) > 0 {
			s.free = append(s.free, blk)
		}
	}
	s.mu.Unlock()
	f.mem = nil
}

// releaseRange recycles the block slices of [lo, hi) while the tail stays
// readable (File.ReleasePrefix). Reclaimed entries are nilled; the final
// release skips them via the cap check above.
func (s *memStore) releaseRange(f *File, lo, hi int) {
	s.mu.Lock()
	for i := lo; i < hi; i++ {
		if blk := f.mem[i]; cap(blk) > 0 && len(s.free) < maxMemFreeBlocks {
			s.free = append(s.free, blk)
		}
		f.mem[i] = nil
	}
	s.mu.Unlock()
}

// corruptBlock flips one bit of the stored block image. The in-memory block
// is held in decoded form, so the on-disk-image bit position is translated
// through the little-endian record layout.
func (s *memStore) corruptBlock(f *File, i, bit int) error {
	byteIdx := bit / 8
	e := &f.mem[i][byteIdx/elemBytes]
	word := byteIdx % elemBytes
	mask := int64(1) << uint((word%8)*8+bit%8)
	if word < 8 {
		e.Key ^= mask
	} else {
		e.Aux ^= mask
	}
	return nil
}

func (s *memStore) close() error { return nil }

// storeReadError attributes a physical read failure to its file and backing
// offset. A *TransientError from the retry layer already carries the
// attribution and passes through unwrapped.
func storeReadError(fname string, off int64, err error) error {
	if _, ok := err.(*TransientError); ok {
		return err
	}
	return &FaultError{Op: "read", File: fname, Block: -1, Off: off, Err: err}
}

// storeWriteError is storeReadError for writes, plus resource attribution:
// an ENOSPC from the device (or the injector's errno schedule) is wrapped in
// a *ResourceError carrying the acting disk's live usage, so the caller sees
// real disk exhaustion exactly as it sees a model-budget rejection. ENOSPC is
// not transient, so the retry layer never spends attempts on a full disk.
func storeWriteError(d *Disk, fname string, off int64, err error) error {
	if _, ok := err.(*TransientError); ok {
		return err
	}
	if errors.Is(err, syscall.ENOSPC) {
		var re *ResourceError
		if !errors.As(err, &re) {
			var used, budget int64
			if d != nil && d.budget != nil {
				used, budget = d.budget.used.Load(), max(d.budget.limit, 0)
			}
			err = &ResourceError{Resource: "disk", File: fname, Used: used, Budget: budget, Err: err}
		}
	}
	return &FaultError{Op: "write", File: fname, Block: -1, Off: off, Err: err}
}

// elemBytes is the on-disk size of one element: two little-endian int64s.
const elemBytes = 16

// fileStore appends blocks to one backing OS file and reads them back with
// positioned I/O. Each stored block records its element count implicitly
// through the File's length bookkeeping (every block is full except the
// last), so the layout is a dense log of 16-byte records. Released extents
// go onto a size-keyed free list and are reused by later appends, capping the
// backing file at the peak live footprint rather than the cumulative write
// volume.
//
// With pipe.Enabled the store's disk runs the I/O engine (see disk_io.go):
// appends stage encoded blocks into batch writes and sequential reads are
// served from coalesced read-ahead windows. Without it every block is one
// positioned transfer on the calling goroutine (readShared, appendShared).
// All fields except the allocator's and the atomics are owned by the
// goroutine driving the disk.
type fileStore struct {
	fd      *os.File
	disk    *Disk   // back-pointer for the resilience layer (retry + injection)
	io      *diskIO // the disk's I/O engine, nil when the pipeline is off
	end     int64   // append cursor: high-water byte offset of the backing file
	scratch []byte  // synchronous encode/decode scratch, one (padded) block
	size    int     // block size in elements
	direct  bool    // O_DIRECT backing: transfers padded to directAlign

	// Extent allocator, guarded by amu: shard sub-disks (see shard.go)
	// allocate and free extents from worker goroutines. Uncontended in
	// sequential runs.
	amu    sync.Mutex
	free   map[int]*extentQueue // released extents keyed by byte length
	nfree  int64                // number of extents on the free list
	zeroed int64                // bytes of backing file physically zero-filled (direct mode)
	zbuf   []byte               // aligned zero buffer for prewriting, amu-guarded
	physR  atomic.Int64         // positioned reads issued (incl. transfer goroutines)
	physW  atomic.Int64         // positioned writes issued (incl. transfer goroutines)
	pipe   Pipeline             // normalized pipeline configuration
	// ring is the io_uring physical backend, nil when Pipeline.Uring is off or
	// unsupported; raw transfers then fall back to pread/pwrite syscalls. The
	// ring sits strictly below the resilience layer: runPhys wraps ring
	// completions exactly as it wraps syscall returns.
	ring *uring
	// sm holds the physical-layer telemetry handles, nil when metrics are
	// disabled. An atomic pointer because transfer goroutines and ring
	// callbacks read it while EnableMetrics may store it from the algorithm
	// goroutine; recordings racing the attach itself may be missed, which is
	// fine — metrics are strictly observational.
	sm atomic.Pointer[storeMetrics]
	// testWriteErr, when set (tests only, before any I/O), injects a failure
	// into the physical write path below the staged writes.
	testWriteErr func(off int64) error
	closed       bool
	closeErr     error
}

// newFileStore opens the backing file at path for disk d. keep opens an
// existing file in place (crash-resume: journaled extents are re-adopted, so
// the bytes must survive the reopen); otherwise the file is created or
// truncated.
func newFileStore(d *Disk, path string, pipe Pipeline, keep bool) (*fileStore, error) {
	direct := pipe.Direct && oDirectFlag != 0
	flags := os.O_RDWR | os.O_CREATE
	if !keep {
		flags |= os.O_TRUNC
	}
	if direct {
		flags |= oDirectFlag
	}
	fd, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("emio: open backing file: %w", err)
	}
	s := &fileStore{
		fd:     fd,
		disk:   d,
		size:   d.blockSize,
		direct: direct,
		free:   make(map[int]*extentQueue),
		pipe:   pipe.withDefaults(),
	}
	s.scratch = alignedBytes(s.pad(s.size*elemBytes), direct)
	if pipe.Enabled {
		s.io = newDiskIO(s, d, false)
	}
	if s.pipe.Uring && UringSupported() {
		// Ring creation failure degrades silently to the syscall paths,
		// mirroring how Pipeline.Direct degrades without O_DIRECT support.
		if r, err := newUring(fd, s.pipe.UringDepth); err == nil {
			s.ring = r
			r.sm = &s.sm
			fixed := [][]byte{s.scratch}
			if s.io != nil {
				fixed = append(fixed, s.io.pinned()...)
			}
			r.registerBuffers(fixed)
		}
	}
	return s, nil
}

// extentQueue is a FIFO of released extents of one byte length. Release
// order matters: a released file frees an ascending contiguous run of
// offsets, and FIFO reuse hands them back in that order, so consecutive
// appends land on adjacent offsets and stay eligible for write coalescing
// and contiguous read-ahead. (A LIFO stack would reverse them and defeat
// both.)
type extentQueue struct {
	offs []int64
	head int
}

func (q *extentQueue) push(off int64) { q.offs = append(q.offs, off) }

func (q *extentQueue) pop() (int64, bool) {
	if q.head == len(q.offs) {
		return 0, false
	}
	off := q.offs[q.head]
	q.head++
	if q.head == len(q.offs) {
		q.offs, q.head = q.offs[:0], 0
	}
	return off, true
}

// allocExtent returns the backing offset for a new block of nbytes, reusing
// a released extent of the same size when one is available.
func (s *fileStore) allocExtent(nbytes int) int64 {
	s.amu.Lock()
	if q := s.free[nbytes]; q != nil {
		if off, ok := q.pop(); ok {
			s.nfree--
			s.amu.Unlock()
			if sm := s.sm.Load(); sm != nil {
				sm.extentReuses.Inc()
			}
			return off
		}
	}
	off := s.end
	s.end += int64(nbytes)
	end := s.end
	if s.direct && end > s.zeroed {
		s.prewriteLocked(end)
	}
	s.amu.Unlock()
	if sm := s.sm.Load(); sm != nil {
		sm.backingBytes.Set(end)
	}
	return off
}

// allocRun reserves a contiguous run of up to want extents of nbytes each
// and returns its first offset and its length (at least one). Released
// extents are reused first: the run is the head of the size's FIFO queue
// plus every following queued extent that continues it, so space freed by
// one file is handed back as contiguous as it was released. Only when no
// extent of the size is free does the run come off the append cursor, at
// its full length.
func (s *fileStore) allocRun(nbytes, want int) (int64, int) {
	s.amu.Lock()
	if q := s.free[nbytes]; q != nil {
		if off, ok := q.pop(); ok {
			n := 1
			for n < want && q.head < len(q.offs) && q.offs[q.head] == off+int64(n*nbytes) {
				q.pop()
				n++
			}
			s.nfree -= int64(n)
			s.amu.Unlock()
			if sm := s.sm.Load(); sm != nil {
				sm.extentReuses.Add(int64(n))
			}
			return off, n
		}
	}
	off := s.end
	s.end += int64(want * nbytes)
	end := s.end
	if s.direct && end > s.zeroed {
		s.prewriteLocked(end)
	}
	s.amu.Unlock()
	if sm := s.sm.Load(); sm != nil {
		sm.backingBytes.Set(end)
	}
	return off, want
}

// prewriteChunk is how far the backing file is zero-filled ahead of the
// allocation cursor in direct mode. ext4 serializes extending O_DIRECT
// writes on the exclusive inode lock (they allocate blocks and move i_size),
// while overwrites of already-written space take the lock shared and proceed
// in parallel. Zeroing ahead of the cursor in bulk converts every subsequent
// append into an overwrite, so P shard workers can drive the device
// concurrently instead of convoying on the inode. 8 MiB keeps each stall to
// a few milliseconds while amortizing to one prewrite per thousands of
// blocks; extents are recycled, so the total zeroed region is bounded by the
// job's peak backing footprint.
const prewriteChunk = 8 << 20

// prewriteLocked zero-fills the backing file from s.zeroed up to end rounded
// to the next prewriteChunk boundary. Called with amu held. Errors are
// dropped deliberately: the extent remains valid either way — the data write
// that follows will extend the file itself (slower, not wrong) and surface
// any real device fault through the counted, retryable write path.
func (s *fileStore) prewriteLocked(end int64) {
	target := (end + prewriteChunk - 1) / prewriteChunk * prewriteChunk
	if s.zbuf == nil {
		s.zbuf = alignedBytes(prewriteChunk, s.direct)
	}
	for s.zeroed < target {
		if _, err := s.fd.WriteAt(s.zbuf, s.zeroed); err != nil {
			return
		}
		s.zeroed += prewriteChunk
	}
}

// freeBlocks returns the extents of f's blocks [lo, hi) to the free list
// under one lock acquisition, marking them reclaimed. Freeing a file in one
// critical section keeps its extents adjacent in the FIFO queue even while
// other shards free theirs concurrently, so allocRun can hand them back as
// one contiguous run.
func (s *fileStore) freeBlocks(f *File, lo, hi int) {
	var n int64
	s.amu.Lock()
	for i := lo; i < hi; i++ {
		if off := f.extents[i]; off >= 0 {
			s.pushFreeLocked(off, s.extentBytes(f, i))
			f.extents[i] = -1
			n++
		}
	}
	s.amu.Unlock()
	if sm := s.sm.Load(); sm != nil && n > 0 {
		sm.extentFrees.Add(n)
	}
}

// freeRun returns n adjacent extents of nbytes starting at off to the free
// list, in ascending order: the unused rest of an allocRun reservation, or
// the extent of a block whose write failed.
func (s *fileStore) freeRun(off int64, nbytes, n int) {
	s.amu.Lock()
	for k := 0; k < n; k++ {
		s.pushFreeLocked(off+int64(k*nbytes), nbytes)
	}
	s.amu.Unlock()
	if sm := s.sm.Load(); sm != nil {
		sm.extentFrees.Add(int64(n))
	}
}

func (s *fileStore) pushFreeLocked(off int64, nbytes int) {
	q := s.free[nbytes]
	if q == nil {
		q = &extentQueue{}
		s.free[nbytes] = q
	}
	q.push(off)
	s.nfree++
}

// orderFree sorts every size's free queue by offset. The queues hold
// extents in release order: files freed while shards were still writing
// others come back cut at their reservation seams, and reservations drawn
// from such a queue are shorter than the last, so without a reorder the
// layout fragments a little more with every call. Sorted, the queue hands
// out the longest runs the free space holds, in an order that does not
// depend on how earlier calls interleaved.
func (s *fileStore) orderFree() {
	s.amu.Lock()
	for _, q := range s.free {
		q.offs = q.offs[:copy(q.offs, q.offs[q.head:])]
		q.head = 0
		slices.Sort(q.offs)
	}
	s.amu.Unlock()
}

func (s *fileStore) backingBytes() int64 {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.end
}

func (s *fileStore) freeExtents() int64 {
	s.amu.Lock()
	defer s.amu.Unlock()
	return s.nfree
}

func (s *fileStore) setMetrics(m *IOMetrics) {
	if m == nil {
		s.sm.Store(nil)
		return
	}
	s.sm.Store(newStoreMetrics(m))
}

func (s *fileStore) read(f *File, i int, buf []Elem, seq bool) (int, error) {
	if s.io != nil {
		return s.io.read(f, f, i, i, buf, seq, s.scratch)
	}
	return s.readShared(s.disk, f, i, buf, s.scratch)
}

func (s *fileStore) append(f *File, payload []Elem) error {
	if s.io != nil {
		return s.io.append(f, payload)
	}
	return s.appendShared(s.disk, f, payload, s.scratch)
}

// preadRaw issues one raw positioned read over the active physical backend:
// the io_uring ring when armed, a plain pread syscall otherwise. Both paths
// have whole-buffer semantics.
func (s *fileStore) preadRaw(raw []byte, off int64) error {
	if r := s.ring; r != nil {
		return r.pread(raw, off)
	}
	_, err := s.fd.ReadAt(raw, off)
	return err
}

// pwriteRaw is preadRaw for positioned writes.
func (s *fileStore) pwriteRaw(raw []byte, off int64) error {
	if r := s.ring; r != nil {
		return r.pwrite(raw, off)
	}
	_, err := s.fd.WriteAt(raw, off)
	return err
}

// corruptBlock flips one bit of the stored image of block i of f by a raw
// read-modify-write of its extent, bypassing counters, injection and retry
// (harness-side at-rest corruption). Pending pipeline writes of f are
// drained first and its read-ahead discarded, so the flip lands on settled
// bytes and is not masked by a stale staging buffer.
func (s *fileStore) corruptBlock(f *File, i, bit int) error {
	if s.io != nil {
		if err := s.io.sync(f); err != nil {
			return err
		}
		s.io.dropWindows(f)
	}
	raw := s.scratch[:s.pad(f.blockLen(i)*elemBytes)]
	if _, err := s.fd.ReadAt(raw, f.extents[i]); err != nil {
		return fmt.Errorf("emio: corrupt %s block %d: %w", f.name, i, err)
	}
	raw[bit/8] ^= 1 << (bit % 8)
	if _, err := s.fd.WriteAt(raw, f.extents[i]); err != nil {
		return fmt.Errorf("emio: corrupt %s block %d: %w", f.name, i, err)
	}
	return nil
}

func (s *fileStore) release(f *File) {
	if s.io != nil {
		s.io.forget(f)
	}
	s.releaseShared(f)
}

// releaseRange frees the extents of blocks [lo, hi) while the tail stays
// readable (File.ReleasePrefix). The caller guarantees the blocks are
// settled and behind any live read-ahead window, so the extents can be
// reused by the very next append.
func (s *fileStore) releaseRange(f *File, lo, hi int) { s.freeBlocks(f, lo, hi) }

// adoptFloor raises the append cursor to at least end: the resume-safety
// invariant of AdoptFile, guaranteeing fresh allocations never land on
// journaled extents. The direct-mode zero-fill cursor follows so a prewrite
// can never zero adopted bytes.
func (s *fileStore) adoptFloor(end int64) {
	s.amu.Lock()
	if end > s.end {
		s.end = end
	}
	if end > s.zeroed {
		s.zeroed = end
	}
	s.amu.Unlock()
}

func (s *fileStore) syncFile(f *File) error {
	if s.io == nil {
		return nil
	}
	return s.io.sync(f)
}

// syncBacking writes out every staged block of the disk and fsyncs the
// backing file: the checkpoint layer's durability barrier (Disk.SyncBacking).
// Called on the algorithm goroutine.
func (s *fileStore) syncBacking() error {
	if s.io != nil {
		s.io.flush()
		s.io.waitAll()
	}
	if err := s.fd.Sync(); err != nil {
		return fmt.Errorf("emio: fsync backing file: %w", err)
	}
	return nil
}

// kickBackingWriteback nudges the kernel to start writing the backing
// file's dirty pages out, without waiting: the background flusher's call
// (Disk.StartBackingFlusher), safe off the algorithm goroutine. It is
// deliberately not an fsync — a concurrent fsync of a hot file stalls the
// writer on stable pages and forces journal commits; sync_file_range does
// neither, and the checkpoint barrier's real fsync settles what remains.
func (s *fileStore) kickBackingWriteback() { kickWriteback(s.fd.Fd()) }

func (s *fileStore) close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	// Teardown failures are joined, never masked: an undelivered sticky
	// write-behind error and a close failure of the ring or fd are distinct
	// problems, and reporting the first must not swallow the others.
	var err error
	if s.io != nil {
		if err = s.io.settle(); err != nil {
			s.disk.log(slog.LevelError, "unreported write-behind failure surfaced at close")
		}
	}
	if s.ring != nil {
		err = joinErr(err, s.ring.close())
	}
	err = joinErr(err, s.fd.Close())
	s.closeErr = err
	return err
}
