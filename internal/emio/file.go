package emio

import (
	"errors"
	"fmt"
	"log/slog"
	"time"
)

// File is a sequence of elements stored on a Disk in blocks of B elements.
// Every block is full except possibly the last one (a short block seals the
// file). Access is block-granular and charged against the disk's I/O
// counters; the streaming Reader and Writer types are the intended interface
// for algorithms.
//
// Storage lives in the Disk's block store — host memory by default, a real
// backing file for disks created with NewFileBackedDisk. The File itself
// holds only metadata (directory information, free in the model).
type File struct {
	disk     *Disk
	name     string
	n        int64
	nblocks  int
	sealed   bool
	released bool
	scratch  bool // created through Ctx.Scratch (leak-detector relevant)

	mem     [][]Elem // memStore payloads
	extents []int64  // fileStore block offsets (-1 = reclaimed by ReleasePrefix)
	sums    []uint32 // per-block CRC32C sidecar (disks with checksums armed)

	// freed counts the blocks [0, freed) whose storage was reclaimed by
	// ReleasePrefix while the file's tail stays readable (consuming reads,
	// the disk-budget degradation path of merges).
	freed int
}

// Errors returned by block-level file operations.
var (
	ErrBlockRange   = errors.New("emio: block index out of range")
	ErrPartialBlock = errors.New("emio: cannot append after a partial block")
	ErrBlockSize    = errors.New("emio: block payload exceeds block size")
)

// Name returns the file's diagnostic name.
func (f *File) Name() string { return f.name }

// Len returns the number of elements in the file.
func (f *File) Len() int64 { return f.n }

// NumBlocks returns the number of blocks occupied by the file.
func (f *File) NumBlocks() int { return f.nblocks }

// Disk returns the disk the file lives on.
func (f *File) Disk() *Disk { return f.disk }

// Released reports whether the file's storage has been released.
func (f *File) Released() bool { return f.released }

// Release drops the file's storage. The EM model has unbounded disk, but the
// simulation does not; algorithms release scratch files as soon as they are
// consumed so that peak host resources stay proportional to live data.
// Releasing costs no I/Os (deallocation is metadata work). A released file
// must not be accessed again.
func (f *File) Release() {
	if f.released {
		return
	}
	f.disk.store.release(f)
	// Blocks already reclaimed by ReleasePrefix were freed there.
	f.disk.noteFree(int64(f.nblocks - f.freed))
	f.disk.noteRelease(f)
	f.n = 0
	f.nblocks = 0
	f.freed = 0
	f.sums = nil
	f.released = true
}

// ReleasePrefix reclaims the storage of blocks [0, upTo) while the file's
// tail stays readable: the consuming-read primitive behind budget-bounded
// merges, where each input run is read exactly once and its consumed blocks
// can be returned to the allocator as the merge advances. Reading a
// reclaimed block fails with ErrReleased. Costs no I/O (deallocation is
// metadata work, like Release).
//
// The caller guarantees the reclaimed blocks are settled (no pending
// write-behind) and that no read-ahead in flight covers them — the
// consuming Reader reclaims only blocks more than ConsumeLag behind its
// current one. No-op on released files.
func (f *File) ReleasePrefix(upTo int) {
	if f.released {
		return
	}
	if upTo > f.nblocks {
		upTo = f.nblocks
	}
	if upTo <= f.freed {
		return
	}
	f.disk.store.releaseRange(f, f.freed, upTo)
	f.disk.noteFree(int64(upTo - f.freed))
	f.freed = upTo
}

// blockLen returns the element count of block i without bounds checking:
// every block is full except the last.
func (f *File) blockLen(i int) int {
	if i == f.nblocks-1 {
		return int(f.n - int64(f.nblocks-1)*int64(f.disk.blockSize))
	}
	return f.disk.blockSize
}

// blockOff returns the byte offset of block i in the backing store; for
// memory-backed disks it is the block's dense-log position (the offset it
// would have on a file backing).
func (f *File) blockOff(i int) int64 {
	if i < len(f.extents) {
		return f.extents[i]
	}
	return int64(i) * int64(f.disk.blockSize) * elemBytes
}

// ReadBlock copies block i into buf and returns the number of elements
// copied. It charges exactly one read I/O, even when the block is the
// partial last block or when a fault hook aborts the transfer.
// buf must have capacity for a full block.
func (f *File) ReadBlock(i int, buf []Elem) (int, error) {
	return f.readBlockAhead(i, buf, false)
}

// ReadBlockSequential is ReadBlock for callers scanning the file in block
// order: a file-backed store may read the following contiguous blocks
// ahead, up to the engine's read-ahead depth, with one coalesced physical
// read. Logical cost is identical to ReadBlock (exactly one read I/O for
// block i); on memory-backed disks the two are the same operation. The
// streaming Reader uses this path internally.
func (f *File) ReadBlockSequential(i int, buf []Elem) (int, error) {
	return f.readBlockAhead(i, buf, true)
}

// readBlockAhead is ReadBlock plus a sequential-intent hint (seq): a file
// store may read ahead the following contiguous blocks with one coalesced
// physical read. The hint never changes logical accounting —
// exactly one read I/O is charged for block i, here, on the caller's
// goroutine, before any physical transfer.
func (f *File) readBlockAhead(i int, buf []Elem, seq bool) (int, error) {
	if f.released {
		return 0, fmt.Errorf("%w (%s)", ErrReleased, f.name)
	}
	if i < 0 || i >= f.nblocks {
		return 0, fmt.Errorf("%w: block %d of %d in %s", ErrBlockRange, i, f.nblocks, f.name)
	}
	if i < f.freed {
		return 0, fmt.Errorf("%w: block %d of %s consumed by ReleasePrefix", ErrReleased, i, f.name)
	}
	// Cancellation lands here, before the transfer is counted: a cancelled
	// read never happened in the model, and the caller unwinds within one
	// block-transfer latency of the flag flipping.
	if err := f.disk.checkCancel(); err != nil {
		return 0, err
	}
	f.disk.stats.Reads++
	f.disk.noteRead(f, i)
	if hook := f.disk.readFault; hook != nil {
		if err := hook(f, i); err != nil {
			f.disk.log(slog.LevelWarn, "injected read fault",
				slog.String("file", f.name), slog.Int("block", i))
			return 0, &FaultError{Op: "read", File: f.name, Block: i, Off: f.blockOff(i), Err: err}
		}
	}
	m := f.disk.iom
	var t0 time.Time
	if m != nil {
		m.logReads.Inc()
		t0 = time.Now()
	}
	n, err := f.disk.store.read(f, i, buf, seq)
	if m != nil {
		m.logReadNS.ObserveEx(int64(time.Since(t0)), f.disk.exemplarSeq())
	}
	if err != nil {
		return 0, &FaultError{Op: "read", File: f.name, Block: i, Off: f.blockOff(i), Err: err}
	}
	if f.disk.checksum && i < len(f.sums) {
		// Verify the decoded payload against the sum recorded at append
		// time. This is the single verification point for every fill path —
		// synchronous reads, write-behind read-back and prefetch staging all
		// decode here, on the algorithm goroutine.
		if got := checksumElems(buf[:n]); got != f.sums[i] {
			if m != nil {
				m.corruptions.Inc()
			}
			f.disk.log(slog.LevelError, "checksum mismatch on read",
				slog.String("file", f.name), slog.Int("block", i),
				slog.Uint64("stored", uint64(f.sums[i])), slog.Uint64("computed", uint64(got)))
			return 0, &CorruptionError{
				File: f.name, Block: i, Off: f.blockOff(i),
				Stored: f.sums[i], Computed: got,
			}
		}
	}
	return n, nil
}

// Sync writes out every staged block of the file to the backing store,
// waiting for any still in flight, and reports the first physical write
// failure among them. A no-op (nil) for memory-backed disks.
func (f *File) Sync() error {
	if f.released {
		return nil
	}
	if s, ok := f.disk.store.(*fileStore); ok {
		return s.sync(f)
	}
	return nil
}

// AppendBlock appends a block containing the given elements and charges one
// write I/O. A block shorter than B elements seals the file: nothing may be
// appended after it (blocks other than the last must be full).
func (f *File) AppendBlock(payload []Elem) error {
	if f.released {
		return fmt.Errorf("%w (%s)", ErrReleased, f.name)
	}
	b := f.disk.blockSize
	if len(payload) > b {
		return fmt.Errorf("%w: %d > B=%d in %s", ErrBlockSize, len(payload), b, f.name)
	}
	if f.sealed {
		return fmt.Errorf("%w (%s)", ErrPartialBlock, f.name)
	}
	// Admission checks, before the transfer is counted: cancellation (a
	// cancelled write never happened in the model) and the disk-byte budget
	// (a rejected append consumed no space and no I/O).
	if err := f.disk.checkCancel(); err != nil {
		return err
	}
	if err := f.disk.admitAppend(f); err != nil {
		return err
	}
	f.disk.stats.Writes++
	if hook := f.disk.writeFault; hook != nil {
		if err := hook(f, f.nblocks); err != nil {
			f.disk.log(slog.LevelWarn, "injected write fault",
				slog.String("file", f.name), slog.Int("block", f.nblocks))
			return &FaultError{Op: "write", File: f.name, Block: f.nblocks, Off: -1, Err: err}
		}
	}
	// Checksum before the store may stage the payload for a later batch
	// write: the sum captures what the algorithm wrote, on the algorithm
	// goroutine, identically on every backend.
	var sum uint32
	if f.disk.checksum {
		sum = checksumElems(payload)
	}
	m := f.disk.iom
	var t0 time.Time
	if m != nil {
		m.logWrites.Inc()
		t0 = time.Now()
	}
	err := f.disk.store.append(f, payload)
	if m != nil {
		m.logWriteNS.ObserveEx(int64(time.Since(t0)), f.disk.exemplarSeq())
	}
	if err != nil {
		return &FaultError{Op: "write", File: f.name, Block: f.nblocks, Off: -1, Err: err}
	}
	if f.disk.checksum {
		f.sums = append(f.sums, sum)
	}
	f.nblocks++
	f.disk.noteAlloc(1)
	f.n += int64(len(payload))
	if len(payload) < b {
		f.sealed = true
	}
	return nil
}

// BlockLen returns the number of elements stored in block i without
// performing an I/O (block directory metadata is memory-resident, as in any
// real file system).
func (f *File) BlockLen(i int) (int, error) {
	if f.released {
		return 0, fmt.Errorf("%w (%s)", ErrReleased, f.name)
	}
	if i < 0 || i >= f.nblocks {
		return 0, fmt.Errorf("%w: block %d of %d in %s", ErrBlockRange, i, f.nblocks, f.name)
	}
	return f.blockLen(i), nil
}
