package emio

import (
	"fmt"
	"slices"
	"syscall"
	"time"
)

// Coalesced shard I/O.
//
// Shard sub-disks run on worker goroutines, so they cannot use the parent's
// write-behind queue and read-ahead chains, which belong to the algorithm
// goroutine. Left alone, every logical transfer of a shard is one positioned
// syscall, and shards drawing extents one at a time from the shared
// allocator interleave, so no shard's file is contiguous in the backing
// file. On a pipelined file store each shard therefore gets a shardIO, the
// shard's own small pipeline, used by whichever goroutine runs the shard's
// current task:
//
//   - Contiguous extent reservations: full-block extents come from a
//     per-shard reservation of adjacent extents, taken from the shared
//     allocator in one locked call (allocRun). A shard's consecutive appends
//     land on adjacent offsets however the other shards interleave.
//   - Staged writes: appends are encoded into a staging buffer of up to
//     Pipeline.QueueDepth blocks. When it fills, or when the next extent does
//     not continue it, the batch goes out as one positioned write that runs
//     while the next batch is staged in a second buffer. A file's staged and
//     in-flight blocks are written out before it is read, synced or
//     released. A failed write is recorded against every file in the batch
//     and reported once: by the next operation on such a file, or by
//     Disk.Settle at the end of the shard's task.
//   - Read-ahead: a sequential read (Reader, ReadBlockSequential) fills a
//     per-file window with up to Pipeline.PrefetchDepth contiguous blocks in
//     one positioned read, and the following window is read while the
//     current one is consumed.
//
// Transfers go through the io_uring when one is armed, else they run on a
// goroutine. Logical accounting does not change: Disk and File count every
// block before the store sees it, so Stats, traces and outputs are the same
// as with one transfer per block. While a fault injector is armed on the
// shard the coalescing is bypassed, so scripted schedules, which are keyed
// by the index of the physical transfer, still see one transfer per block.

// shardReserveBatches is the length of an extent reservation in staging
// batches. Reservations longer than one batch keep a file contiguous across
// flushes, so read-ahead windows seldom break at a reservation seam; the
// unused rest goes back to the allocator at Settle.
const shardReserveBatches = 4

// shardIO is the coalescing state of one shard sub-disk of a pipelined file
// store. It is used by one goroutine at a time; the engine's phase barriers
// order the hand-offs between tasks.
type shardIO struct {
	fs         *fileStore
	blockBytes int // extent size of a full block (padded in direct mode)
	depth      int // staging capacity in blocks
	winBlocks  int // read-ahead window capacity in blocks

	stage    []byte    // the batch being staged, blocks encoded back to back
	ops      []batchOp // its blocks; their extents are adjacent
	flying   []byte    // the other batch buffer, being written by inflight
	flyOps   []batchOp // its blocks
	inflight *xfer     // the batch write in flight, nil when none
	resOff   int64     // next extent of the current reservation
	resLeft  int       // extents left in it

	errs    map[*File]*stickyErr // staged-write failures by file
	errList []*stickyErr         // the same, in failure order, until Settle

	win  map[*File]*shardWindow // read-ahead chain per file read through
	bufs [][]byte               // recycled window buffers
}

// shardWindow holds blocks [from, from+count) of the file read through (a
// view or a whole file), read from the backing file at startOff. The head
// window of a file has always been awaited; its next is in flight.
type shardWindow struct {
	from, count int
	startOff    int64
	buf         []byte
	x           *xfer // the read filling buf, nil once awaited
	next        *shardWindow
}

func (w *shardWindow) covers(i int) bool { return i >= w.from && i < w.from+w.count }

func newShardIO(fs *fileStore) *shardIO {
	bb := fs.pad(fs.size * elemBytes)
	batch := fs.pipe.QueueDepth * bb
	return &shardIO{
		fs:         fs,
		blockBytes: bb,
		depth:      fs.pipe.QueueDepth,
		winBlocks:  fs.pipe.PrefetchDepth,
		stage:      alignedBytes(batch, fs.direct)[:0],
		flying:     alignedBytes(batch, fs.direct)[:0],
		errs:       make(map[*File]*stickyErr),
		win:        make(map[*File]*shardWindow),
	}
}

// append stages payload as the next block of f, flushing first when its
// extent does not continue the staged run. Earlier failures of f's staged
// writes surface here, before the block is accepted.
func (io *shardIO) append(d *Disk, f *File, payload []Elem, scratch []byte) error {
	if err := io.fileErr(f); err != nil {
		return err
	}
	if d.Injector() != nil {
		io.flush(d)
		io.wait()
		if err := io.fileErr(f); err != nil {
			return err
		}
		return io.fs.appendShared(d, f, payload, scratch)
	}
	nbytes := len(payload) * elemBytes
	pn := io.fs.pad(nbytes)
	off := io.extent(pn)
	if n := len(io.ops); n > 0 && io.ops[n-1].off+int64(io.ops[n-1].nbytes) != off {
		io.flush(d)
	}
	start := len(io.stage)
	io.stage = io.stage[:start+pn]
	encodeElems(io.stage[start:start+nbytes], payload, true)
	clear(io.stage[start+nbytes:])
	io.ops = append(io.ops, batchOp{f: f, off: off, nbytes: pn})
	f.extents = append(f.extents, off)
	if len(io.ops) == io.depth {
		io.flush(d)
	}
	return nil
}

// extent returns the backing offset for a new block of pn bytes: the next
// extent of the shard's reservation for full blocks, a one-off extent for a
// short last block of another padded size.
func (io *shardIO) extent(pn int) int64 {
	if pn != io.blockBytes {
		return io.fs.allocExtent(pn)
	}
	if io.resLeft == 0 {
		io.resOff, io.resLeft = io.fs.allocRun(pn, shardReserveBatches*io.depth)
	}
	off := io.resOff
	io.resOff += int64(pn)
	io.resLeft--
	return off
}

// flush starts the write of the staged batch, after the previous one has
// completed, and swaps the batch buffers.
func (io *shardIO) flush(d *Disk) {
	if len(io.ops) == 0 {
		return
	}
	io.wait()
	first := io.ops[0]
	io.inflight = io.fs.startXfer(d, opWrite, first.f.name, io.stage, first.off, len(io.ops))
	io.stage, io.flying = io.flying[:0], io.stage
	io.ops, io.flyOps = io.flyOps[:0], io.ops
}

// wait completes the batch write in flight, recording a failure against
// every file in the batch.
func (io *shardIO) wait() {
	x := io.inflight
	if x == nil {
		return
	}
	io.inflight = nil
	if err := io.fs.awaitXfer(x); err != nil {
		for _, op := range io.flyOps {
			if io.errs[op.f] == nil {
				se := &stickyErr{err: storeWriteError(x.d, op.f.name, op.off, err)}
				io.errs[op.f] = se
				io.errList = append(io.errList, se)
			}
		}
	}
	io.flyOps = io.flyOps[:0]
}

// drain completes every staged or in-flight write of f.
func (io *shardIO) drain(d *Disk, f *File) {
	ofF := func(op batchOp) bool { return op.f == f }
	if slices.ContainsFunc(io.ops, ofF) {
		io.flush(d)
	}
	if slices.ContainsFunc(io.flyOps, ofF) {
		io.wait()
	}
}

// fileErr reports f's staged-write failure, marking it delivered. The
// shardIO has one user at a time, so unlike the pipeline's errors these need
// no lock.
func (io *shardIO) fileErr(f *File) error { return deliverLocked(io.errs[f]) }

// read serves block i of f, which is block blk of src (f itself, or the file
// a view resolves to): from f's read-ahead window when one holds the block,
// else with a single positioned read.
func (io *shardIO) read(d *Disk, f, src *File, i, blk int, buf []Elem, ahead int, scratch []byte) (int, error) {
	io.drain(d, src)
	if err := io.fileErr(src); err != nil {
		return 0, err
	}
	n := src.blockLen(blk)
	if cap(buf) < n {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), n)
	}
	w, hit := io.window(d, f, src, i, blk, ahead > 0 && d.Injector() == nil)
	if sm := io.fs.sm.Load(); sm != nil {
		if hit {
			sm.prefetchHits.Inc()
		} else {
			sm.prefetchMisses.Inc()
		}
	}
	if w == nil {
		return io.fs.readShared(d, src, blk, buf, scratch)
	}
	off := int(src.extents[blk] - w.startOff)
	decodeElems(buf[:n], w.buf[off:off+n*elemBytes], true)
	return n, nil
}

// window returns a completed window of f holding block i, or nil. A block
// already read ahead is a hit; a sequential read (seq) that misses starts a
// new chain at i. Either way the window after the returned one is put in
// flight. A failed read-ahead drops the chain and returns nil, so the block
// is read on its own and a failure reports like a synchronous one.
func (io *shardIO) window(d *Disk, f, src *File, i, blk int, seq bool) (w *shardWindow, hit bool) {
	w = io.win[f]
	if w != nil && !w.covers(i) && w.next != nil && w.next.covers(i) {
		io.bufs = append(io.bufs, w.buf)
		w = w.next
		io.win[f] = w
	}
	hit = w != nil && w.covers(i)
	if !hit {
		io.dropWindows(f)
		if !seq {
			return nil, false
		}
		if w = io.startWindow(d, f, src, i, blk); w == nil {
			return nil, false
		}
		io.win[f] = w
	}
	if w.x != nil {
		err := io.fs.awaitXfer(w.x)
		w.x = nil
		if err != nil {
			io.dropWindows(f)
			return nil, false
		}
	}
	if seq && w.next == nil {
		end := w.from + w.count
		w.next = io.startWindow(d, f, src, end, blk-i+end)
	}
	return w, hit
}

// startWindow starts reading up to winBlocks contiguous blocks of f from
// block j (block sblk of src) into a window. It returns nil, reading
// nothing, when fewer than two blocks are contiguous there.
func (io *shardIO) startWindow(d *Disk, f, src *File, j, sblk int) *shardWindow {
	if j >= f.nblocks {
		return nil
	}
	startOff := src.extents[sblk]
	count, nbytes := 0, 0
	for count < io.winBlocks && j+count < f.nblocks && src.extents[sblk+count] == startOff+int64(nbytes) {
		nbytes += io.fs.extentBytes(src, sblk+count)
		count++
	}
	if count < 2 {
		return nil
	}
	w := &shardWindow{from: j, count: count, startOff: startOff, buf: io.getBuf()}
	w.x = io.fs.startXfer(d, opRead, src.name, w.buf[:nbytes], startOff, count)
	return w
}

func (io *shardIO) getBuf() []byte {
	if k := len(io.bufs); k > 0 {
		b := io.bufs[k-1]
		io.bufs = io.bufs[:k-1]
		return b
	}
	return alignedBytes(io.winBlocks*io.blockBytes, io.fs.direct)
}

// dropWindows waits out f's read-ahead chain and recycles its buffers.
func (io *shardIO) dropWindows(f *File) {
	for w := io.win[f]; w != nil; w = w.next {
		if w.x != nil {
			// Only the buffer must be free again; no block of a dropped
			// window is served, so its read failure reaches no one.
			_ = io.fs.awaitXfer(w.x)
		}
		io.bufs = append(io.bufs, w.buf)
	}
	delete(io.win, f)
}

// forget drops f's windows and writes out its staged blocks: the file is
// being released, and its extents must not be reused under a write still to
// come.
func (io *shardIO) forget(d *Disk, f *File) {
	io.dropWindows(f)
	io.drain(d, f)
	delete(io.errs, f)
}

// settle writes every staged block, waits out all transfers, returns the
// rest of the reservation to the allocator and reports the first
// staged-write failure nothing has reported yet.
func (io *shardIO) settle(d *Disk) error {
	io.flush(d)
	io.wait()
	for f := range io.win {
		io.dropWindows(f)
	}
	if io.resLeft > 0 {
		io.fs.freeRun(io.resOff, io.blockBytes, io.resLeft)
		io.resLeft = 0
	}
	var err error
	for _, se := range io.errList {
		if !se.delivered && err == nil {
			err = se.err
		}
		se.delivered = true
	}
	io.errList = nil
	return err
}

// xfer is one positioned transfer started by startXfer and completed by
// awaitXfer.
type xfer struct {
	d     *Disk
	op    ioOp
	fname string
	buf   []byte
	off   int64
	done  chan struct{}
	ring  bool // completed by a ring callback, so the waiter drives the CQ
	redo  bool // the ring moved only part of buf; awaitXfer repeats it
	err   error
}

// startXfer issues one positioned transfer of buf at off for d's file fname
// and returns without waiting. It goes through the io_uring when one is
// armed and d has no fault layer (whose per-attempt schedules need the
// synchronous path), else it runs on a goroutine through the fault layer.
// blocks is the run length recorded in the run-size histograms.
func (s *fileStore) startXfer(d *Disk, op ioOp, fname string, buf []byte, off int64, blocks int) *xfer {
	x := &xfer{d: d, op: op, fname: fname, buf: buf, off: off, done: make(chan struct{})}
	sm := s.sm.Load()
	var t0 time.Time
	if sm != nil {
		t0 = time.Now()
	}
	finish := func(err error) {
		x.err = err
		if sm != nil {
			ns := int64(time.Since(t0))
			if op == opRead {
				sm.physReads.Inc()
				sm.physReadNS.ObserveEx(ns, sm.seq.Load())
				if err == nil {
					sm.readRunBlocks.Observe(int64(blocks))
				}
			} else {
				sm.physWrites.Inc()
				sm.physWriteNS.ObserveEx(ns, sm.seq.Load())
				if err == nil {
					sm.writeRunBlocks.Observe(int64(blocks))
				}
			}
		}
		close(x.done)
	}
	if op == opRead {
		s.physR.Add(1)
	} else {
		s.physW.Add(1)
		if s.async != nil && s.async.testWriteErr != nil {
			if err := s.async.testWriteErr(off); err != nil {
				finish(err)
				return x
			}
		}
	}
	if r := s.ring; r != nil && d.Injector() == nil && d.retry == nil {
		x.ring = true
		err := r.submitCallback(op, buf, off, func(res int32) {
			var err error
			switch e := syscall.Errno(-res); {
			case res >= 0 && int(res) != len(buf), e == syscall.EINTR, e == syscall.EAGAIN:
				x.redo = true
			case res < 0:
				err = e
			}
			finish(err)
		})
		if err == nil {
			return x
		}
		// The submission failed and the callback will not run.
		x.ring = false
		finish(err)
		return x
	}
	go func() {
		if op == opRead {
			finish(s.readAtPhysOn(d, fname, buf, off))
		} else {
			finish(s.writeAtPhysOn(d, fname, buf, off))
		}
	}()
	return x
}

// awaitXfer waits for x to complete and returns its error. A transfer the
// ring left partial is repeated synchronously, whole.
func (s *fileStore) awaitXfer(x *xfer) error {
	if x.ring {
		s.ring.waitDone(x.done)
	} else {
		<-x.done
	}
	if x.redo {
		x.redo = false
		if x.op == opRead {
			x.err = s.readAtPhysOn(x.d, x.fname, x.buf, x.off)
		} else {
			x.err = s.writeAtPhysOn(x.d, x.fname, x.buf, x.off)
		}
	}
	return x.err
}
