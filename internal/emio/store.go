package emio

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
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
	// marks a sequential scan, which the file store may serve from a
	// read-ahead window.
	read(f *File, i int, buf []Elem, seq bool) (int, error)
	// append stores a new block holding payload at index f.numBlocks.
	append(f *File, payload []Elem) error
	// release drops f's storage.
	release(f *File)
	// releaseRange drops the storage of f's blocks [lo, hi) while the rest
	// of the file stays readable (see File.ReleasePrefix).
	releaseRange(f *File, lo, hi int)
	// close releases backend resources (no-op for memory).
	close() error
}

// memStore keeps blocks as slices hanging off the File, recycling released
// block slices through a bounded per-disk free list so that scratch-heavy
// runs (merge passes, recursion) reuse memory instead of churning the GC.
// Like its Disk it serves one goroutine; everything else the store touches
// hangs off the File being operated on.
type memStore struct {
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
	if k := len(s.free); k > 0 && cap(s.free[k-1]) >= n {
		blk := s.free[k-1][:n]
		s.free[k-1], s.free = nil, s.free[:k-1]
		return blk
	}
	return make([]Elem, n, blockSize)
}

func (s *memStore) release(f *File) {
	for _, blk := range f.mem {
		if len(s.free) < maxMemFreeBlocks && cap(blk) > 0 {
			s.free = append(s.free, blk)
		}
	}
	f.mem = nil
}

// releaseRange recycles the block slices of [lo, hi) while the tail stays
// readable (File.ReleasePrefix). Reclaimed entries are nilled; the final
// release skips them via the cap check above.
func (s *memStore) releaseRange(f *File, lo, hi int) {
	for i := lo; i < hi; i++ {
		if blk := f.mem[i]; cap(blk) > 0 && len(s.free) < maxMemFreeBlocks {
			s.free = append(s.free, blk)
		}
		f.mem[i] = nil
	}
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
			err = &ResourceError{Resource: "disk", File: fname, Used: d.DiskBytes(), Budget: d.DiskBudget(), Err: err}
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
// The store's disk runs the I/O engine (see disk_io.go), embedded here:
// appends stage encoded blocks into batch writes and sequential reads are
// served from coalesced read-ahead windows; a block no window holds is one
// positioned read (readBlock). All fields except the allocator's and the
// atomics are owned by the goroutine driving the disk.
type fileStore struct {
	*diskIO // the disk's I/O engine: read, append, sync and the write-behind state
	fd      *os.File
	disk    *Disk  // back-pointer for the resilience layer (retry + injection)
	end     int64  // append cursor: high-water byte offset of the backing file
	scratch []byte // synchronous decode scratch, one (padded) block
	size    int    // block size in elements
	direct  bool   // O_DIRECT backing: transfers padded to directAlign

	// Extent allocator, guarded by amu so that BackingBytes and FreeExtents
	// may be read from any goroutine. Uncontended otherwise.
	amu    sync.Mutex
	free   map[int]*extentQueue // released extents keyed by byte length
	nfree  int64                // number of extents on the free list
	zeroed int64                // bytes of backing file physically zero-filled (direct mode)
	zbuf   []byte               // aligned zero buffer for prewriting, amu-guarded
	physR  atomic.Int64         // positioned reads issued, for PhysStats from any goroutine
	physW  atomic.Int64         // positioned writes issued, likewise
	dep    depths               // engine depths (engineDepths outside tests)
	// ring is the io_uring physical backend, nil when Pipeline.Uring is off or
	// unsupported; raw transfers then fall back to pread/pwrite syscalls. The
	// ring sits strictly below the resilience layer: runPhys wraps ring
	// completions exactly as it wraps syscall returns.
	ring *uring
	// sm holds the physical-layer telemetry handles, nil when metrics are
	// disabled. An atomic pointer because EnableMetrics may store it from a
	// goroutine other than the one driving the disk; recordings racing the
	// attach itself may be missed, which is fine — metrics are strictly
	// observational.
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
func newFileStore(d *Disk, path string, pipe Pipeline, dep depths, keep bool) (*fileStore, error) {
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
		dep:    dep,
	}
	s.scratch = alignedBytes(s.pad(s.size*elemBytes), direct)
	s.diskIO = newDiskIO(s)
	if pipe.Uring && UringSupported() {
		// Ring creation failure degrades silently to the syscall paths,
		// mirroring how Pipeline.Direct degrades without O_DIRECT support.
		if r, err := newUring(fd, dep.uring); err == nil {
			s.ring = r
			r.sm = &s.sm
			r.registerBuffers(append([][]byte{s.scratch}, s.pinned()...))
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

// prewriteChunk is how far the backing file is zero-filled ahead of the
// allocation cursor in direct mode. ext4 serializes extending O_DIRECT
// writes on the exclusive inode lock (they allocate blocks and move i_size),
// while overwrites of already-written space take the lock shared and proceed
// in parallel. Zeroing ahead of the cursor in bulk converts every subsequent
// append into an overwrite, so the engine's overlapping batch writes and
// read-ahead drive the device concurrently instead of convoying on the
// inode. 8 MiB keeps each stall to a few milliseconds while amortizing to
// one prewrite per thousands of blocks; extents are recycled, so the total
// zeroed region is bounded by the job's peak backing footprint.
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
// in ascending order, marking them reclaimed.
func (s *fileStore) freeBlocks(f *File, lo, hi int) {
	var n int64
	s.amu.Lock()
	for i := lo; i < hi; i++ {
		off := f.extents[i]
		if off < 0 {
			continue
		}
		nbytes := s.extentBytes(f, i)
		q := s.free[nbytes]
		if q == nil {
			q = &extentQueue{}
			s.free[nbytes] = q
		}
		q.push(off)
		s.nfree++
		f.extents[i] = -1
		n++
	}
	s.amu.Unlock()
	if sm := s.sm.Load(); sm != nil && n > 0 {
		sm.extentFrees.Add(n)
	}
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

// readBlock reads block i of f with one positioned transfer on the calling
// goroutine: the engine's path for a block no read-ahead window holds.
func (s *fileStore) readBlock(f *File, i int, buf []Elem) (int, error) {
	n := f.blockLen(i)
	if cap(buf) < n {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), n)
	}
	raw := s.scratch[:s.pad(n*elemBytes)]
	if err := s.transfer(opRead, f.name, raw, f.extents[i], 1); err != nil {
		return 0, storeReadError(f.name, f.extents[i], err)
	}
	decodeElems(buf[:n], raw[:n*elemBytes], true)
	return n, nil
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
// (harness-side at-rest corruption). Staged writes of f are written out
// first and its read-ahead discarded, so the flip lands on settled bytes and
// is not masked by a stale staging buffer.
func (s *fileStore) corruptBlock(f *File, i, bit int) error {
	if err := s.sync(f); err != nil {
		return err
	}
	s.dropWindows(f)
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
	s.forget(f)
	s.freeBlocks(f, 0, len(f.extents))
	f.extents = nil
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

// syncBacking writes out every staged block of the disk and fsyncs the
// backing file: the checkpoint layer's durability barrier (Disk.SyncBacking).
// Called on the algorithm goroutine.
func (s *fileStore) syncBacking() error {
	s.flush()
	s.waitAll()
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
	err := s.settle()
	if err != nil {
		s.disk.log(slog.LevelError, "unreported write-behind failure surfaced at close")
	}
	if s.ring != nil {
		err = joinErr(err, s.ring.close())
	}
	err = joinErr(err, s.fd.Close())
	s.closeErr = err
	return err
}
