package emio

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"syscall"
	"time"
)

// The I/O engine of a file store.
//
// The disk over a file store runs one diskIO, driven by the algorithm
// goroutine:
//
//   - Extents: each block takes one extent from the allocator (allocExtent),
//     so free-extent reuse keeps the backing file at the live footprint.
//   - Staged writes: appends are encoded into a staging batch of up to
//     queueDepth blocks. A full batch goes out as one positioned write per
//     run of adjacent extents, usually one. On the ring, up to writeSlack
//     batch writes stay in flight while the next batch stages. A file's
//     staged and in-flight blocks are written out before it is read, synced
//     or released.
//   - Read-ahead: a sequential read (Reader, ReadBlockSequential) fills a
//     per-file window with up to prefetchDepth contiguous blocks in one
//     positioned read, and starts the following window when it first reads
//     from the current one; on the ring that read is in flight while the
//     current window is consumed.
//   - Errors: a failed write is recorded against every file in its batch and
//     reported once: by the next operation on such a file (an append, a
//     read, Sync, Writer.Close), else by Disk.Close.
//   - Fault injector armed: writes still stage and their errors are still
//     deferred, but each staged block goes out as its own transfer, in order,
//     on the owning goroutine, and reads skip read-ahead. So scripted
//     schedules, keyed by the index of the physical transfer, see one
//     transfer per block in a deterministic order.
//
// Transfers go through the io_uring when one is armed and the disk's fault
// layer is idle, and complete when the engine next waits on them
// (startXfer, awaitXfer). Otherwise they run in place, on the goroutine
// driving the disk, so nothing else touches the store or the ring.
// Logical accounting does not change: Disk and File count every block before
// the store sees it, so Stats, traces and outputs are the same as with one
// transfer per block.

// writeSlack is the number of batch writes that may be in flight while the
// next batch stages.
const writeSlack = 2

// batchOp locates one encoded block inside a writeBatch: nbytes of payload
// bound for backing offset off on behalf of f.
type batchOp struct {
	f      *File
	off    int64
	nbytes int
}

// writeBatch is a batch of blocks encoded back to back in buf, and once
// started the writes carrying it, one per run of adjacent extents.
type writeBatch struct {
	buf  []byte
	ops  []batchOp
	runs []writeRun
}

// writeRun is the write of one run of a started batch: the ops before end
// and after the previous run's.
type writeRun struct {
	end int
	x   *xfer
}

// diskIO is the engine state of the disk of a file store, used by the
// goroutine driving the disk.
type diskIO struct {
	fs         *fileStore
	d          *Disk
	blockBytes int // extent size of a full block (padded in direct mode)
	depth      int // staging capacity in blocks
	winBlocks  int // read-ahead window capacity in blocks

	stage  *writeBatch   // the batch being staged
	flying []*writeBatch // batch writes in flight, oldest first
	spare  []*writeBatch // idle batch buffers

	errs    map[*File]*stickyErr // staged-write failures by file
	errList []*stickyErr         // the same, in failure order, until settle

	win  map[*File]*readWindow // read-ahead chain per file read through
	bufs [][]byte              // recycled window buffers
}

// stickyErr is one recorded staged-write failure and whether it has been
// reported to a caller yet.
type stickyErr struct {
	err       error
	delivered bool
}

// readWindow holds blocks [from, from+count) of a file, read from the
// backing file at startOff. The head window of a file has always been
// awaited; its next is in flight.
type readWindow struct {
	from, count int
	startOff    int64
	buf         []byte
	x           *xfer // the read filling buf, nil once awaited
	next        *readWindow
}

func (w *readWindow) covers(i int) bool { return i >= w.from && i < w.from+w.count }

func newDiskIO(fs *fileStore) *diskIO {
	bb := fs.pad(fs.size * elemBytes)
	io := &diskIO{
		fs:         fs,
		d:          fs.disk,
		blockBytes: bb,
		depth:      fs.dep.queue,
		winBlocks:  fs.dep.prefetch,
		errs:       make(map[*File]*stickyErr),
		win:        make(map[*File]*readWindow),
	}
	for range writeSlack + 1 {
		io.spare = append(io.spare, &writeBatch{buf: alignedBytes(io.depth*bb, fs.direct)[:0]})
	}
	io.stage = io.takeSpare()
	return io
}

// pinned returns buffers the engine transfers through for the whole life of
// the store, for registration with an io_uring as fixed buffers: every batch
// buffer, and two window buffers put on the recycle list first, which a
// sequential scan cycles through (the window consumed, the one in flight).
func (io *diskIO) pinned() [][]byte {
	out := [][]byte{io.stage.buf[:cap(io.stage.buf)]}
	for _, b := range io.spare {
		out = append(out, b.buf[:cap(b.buf)])
	}
	io.bufs = append(io.bufs, io.getBuf(), io.getBuf())
	return append(out, io.bufs...)
}

func (io *diskIO) takeSpare() *writeBatch {
	b := io.spare[len(io.spare)-1]
	io.spare = io.spare[:len(io.spare)-1]
	return b
}

// append stages payload as the next block of f. Earlier failures of f's
// staged writes surface here, before the block is accepted.
func (io *diskIO) append(f *File, payload []Elem) error {
	if err := io.fileErr(f); err != nil {
		return err
	}
	nbytes := len(payload) * elemBytes
	pn := io.fs.pad(nbytes)
	off := io.fs.allocExtent(pn)
	b := io.stage
	start := len(b.buf)
	b.buf = b.buf[:start+pn]
	encodeElems(b.buf[start:start+nbytes], payload, true)
	clear(b.buf[start+nbytes:])
	b.ops = append(b.ops, batchOp{f: f, off: off, nbytes: pn})
	f.extents = append(f.extents, off)
	if sm := io.fs.sm.Load(); sm != nil {
		sm.queueDepth.Add(1)
	}
	if len(b.ops) == io.depth {
		io.flush()
	}
	return nil
}

// flush starts the write of the staged batch, first completing the oldest
// write in flight when writeSlack are. Under a fault injector it instead
// writes the batch out here, one transfer per block.
func (io *diskIO) flush() {
	b := io.stage
	if len(b.ops) == 0 {
		return
	}
	if io.d.Injector() != nil {
		io.waitAll()
		pos := 0
		for k, op := range b.ops {
			err := io.fs.transfer(opWrite, op.f.name, b.buf[pos:pos+op.nbytes], op.off, 1)
			io.done(b.ops[k:k+1], err)
			pos += op.nbytes
		}
		b.buf, b.ops = b.buf[:0], b.ops[:0]
		return
	}
	if len(io.flying) == writeSlack {
		io.completeOldest()
	}
	var xs []*xfer
	pos := 0
	for start := 0; start < len(b.ops); {
		end, nb := start+1, b.ops[start].nbytes
		for end < len(b.ops) && b.ops[end].off == b.ops[start].off+int64(nb) {
			nb += b.ops[end].nbytes
			end++
		}
		x := newXfer(opWrite, b.ops[start].f.name, b.buf[pos:pos+nb], b.ops[start].off, end-start)
		b.runs = append(b.runs, writeRun{end: end, x: x})
		xs = append(xs, x)
		pos += nb
		start = end
	}
	io.fs.startXfer(xs...)
	io.flying = append(io.flying, b)
	io.stage = io.takeSpare()
}

// completeOldest completes the oldest batch write in flight.
func (io *diskIO) completeOldest() {
	b := io.flying[0]
	io.flying = append(io.flying[:0], io.flying[1:]...)
	start := 0
	for _, r := range b.runs {
		io.done(b.ops[start:r.end], io.fs.awaitXfer(r.x))
		start = r.end
	}
	b.buf, b.ops, b.runs = b.buf[:0], b.ops[:0], b.runs[:0]
	io.spare = append(io.spare, b)
}

// waitAll completes every batch write in flight.
func (io *diskIO) waitAll() {
	for len(io.flying) > 0 {
		io.completeOldest()
	}
}

// done retires written blocks. A failure is recorded against each block's
// file, naming the file and the block's backing offset, so an error that
// surfaces much later still identifies exactly which write was lost.
func (io *diskIO) done(ops []batchOp, err error) {
	if sm := io.fs.sm.Load(); sm != nil {
		sm.queueDepth.Add(-int64(len(ops)))
	}
	if err == nil {
		return
	}
	for _, op := range ops {
		if io.errs[op.f] != nil {
			continue
		}
		// A write abandoned because the job was cancelled is an expected
		// teardown outcome, not lost data: it stays sticky so the next
		// operation on the file fails fast, but is never resurfaced at
		// Close after the job has reported the cancellation.
		se := &stickyErr{err: storeWriteError(io.d, op.f.name, op.off, err), delivered: errors.Is(err, ErrCancelled)}
		io.errs[op.f] = se
		io.errList = append(io.errList, se)
		io.d.log(slog.LevelError, "write-behind failure recorded",
			slog.String("file", op.f.name), slog.Int64("off", op.off))
	}
}

// drain completes every staged or in-flight write of f.
func (io *diskIO) drain(f *File) {
	ofF := func(op batchOp) bool { return op.f == f }
	if slices.ContainsFunc(io.stage.ops, ofF) {
		io.flush()
	}
	n := 0
	for k, b := range io.flying {
		if slices.ContainsFunc(b.ops, ofF) {
			n = k + 1
		}
	}
	for range n {
		io.completeOldest()
	}
}

// fileErr reports f's staged-write failure, marking it delivered.
func (io *diskIO) fileErr(f *File) error {
	se := io.errs[f]
	if se == nil {
		return nil
	}
	se.delivered = true
	return se.err
}

// sync writes out f's staged blocks and reports their failure, if any.
func (io *diskIO) sync(f *File) error {
	io.drain(f)
	return io.fileErr(f)
}

// read serves block i of f: from f's read-ahead window when one holds the
// block, else with a single positioned read.
func (io *diskIO) read(f *File, i int, buf []Elem, seq bool) (int, error) {
	if err := io.sync(f); err != nil {
		return 0, err
	}
	n := f.blockLen(i)
	if cap(buf) < n {
		return 0, fmt.Errorf("%w: buffer cap %d < block len %d", ErrBlockSize, cap(buf), n)
	}
	w, hit := io.window(f, i, seq && io.d.Injector() == nil)
	if sm := io.fs.sm.Load(); sm != nil {
		if hit {
			sm.prefetchHits.Inc()
		} else {
			sm.prefetchMisses.Inc()
		}
	}
	if w == nil {
		return io.fs.readBlock(f, i, buf)
	}
	off := int(f.extents[i] - w.startOff)
	decodeElems(buf[:n], w.buf[off:off+n*elemBytes], true)
	return n, nil
}

// window returns a completed window of f holding block i, or nil. A block
// already read ahead is a hit; a sequential read (seq) that misses starts a
// new chain at i. Either way the window after the returned one is put in
// flight. A failed read-ahead drops the chain and returns nil, so the block
// is read on its own and a failure reports like a synchronous one.
func (io *diskIO) window(f *File, i int, seq bool) (w *readWindow, hit bool) {
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
		if w = io.startWindow(f, i); w == nil {
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
		w.next = io.startWindow(f, end)
	}
	return w, hit
}

// startWindow starts reading up to winBlocks contiguous blocks of f from
// block j into a window. It returns nil, reading nothing, when fewer than
// two blocks are contiguous there.
func (io *diskIO) startWindow(f *File, j int) *readWindow {
	if j >= f.nblocks {
		return nil
	}
	startOff := f.extents[j]
	count, nbytes := 0, 0
	for count < io.winBlocks && j+count < f.nblocks && f.extents[j+count] == startOff+int64(nbytes) {
		nbytes += io.fs.extentBytes(f, j+count)
		count++
	}
	if count < 2 {
		return nil
	}
	w := &readWindow{from: j, count: count, startOff: startOff, buf: io.getBuf()}
	w.x = newXfer(opRead, f.name, w.buf[:nbytes], startOff, count)
	io.fs.startXfer(w.x)
	return w
}

func (io *diskIO) getBuf() []byte {
	if k := len(io.bufs); k > 0 {
		b := io.bufs[k-1]
		io.bufs = io.bufs[:k-1]
		return b
	}
	return alignedBytes(io.winBlocks*io.blockBytes, io.fs.direct)
}

// dropWindows waits out f's read-ahead chain and recycles its buffers.
func (io *diskIO) dropWindows(f *File) {
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
// come. An unreported failure of f stays queued for settle.
func (io *diskIO) forget(f *File) {
	io.dropWindows(f)
	io.drain(f)
	delete(io.errs, f)
}

// settle writes every staged block, waits out all transfers and reports the
// first staged-write failure nothing has reported yet.
func (io *diskIO) settle() error {
	io.flush()
	io.waitAll()
	for f := range io.win {
		io.dropWindows(f)
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

// xfer is one positioned transfer of buf at off for the file fname, started
// by startXfer and completed by awaitXfer. blocks is its run length,
// recorded in the run-size histograms.
type xfer struct {
	op     ioOp
	fname  string
	buf    []byte
	off    int64
	blocks int
	done   bool // set once err holds the result; a ring callback sets it late
	redo   bool // the ring moved only part of buf; awaitXfer repeats it
	err    error
}

func newXfer(op ioOp, fname string, buf []byte, off int64, blocks int) *xfer {
	return &xfer{op: op, fname: fname, buf: buf, off: off, blocks: blocks}
}

// startXfer issues the transfers xs. With an io_uring armed and the disk's
// fault layer idle (its per-attempt schedules need the synchronous path)
// each is its own ring submission, and startXfer returns without waiting.
// Otherwise it runs them here, in order.
func (s *fileStore) startXfer(xs ...*xfer) {
	ring := s.ring != nil && s.disk.Injector() == nil && s.disk.retry == nil && s.testWriteErr == nil
	for _, x := range xs {
		if ring {
			s.submit(x)
		} else {
			x.err = s.transfer(x.op, x.fname, x.buf, x.off, x.blocks)
			x.done = true
		}
	}
}

// submit hands x to the ring. Its completion callback records the result;
// if the submission fails, the callback never runs and x fails here.
func (s *fileStore) submit(x *xfer) {
	sm := s.sm.Load()
	t0 := clock(sm)
	err := s.ring.submitCallback(x.op, x.buf, x.off, func(res int32) {
		switch e := syscall.Errno(-res); {
		case res >= 0 && int(res) != len(x.buf), e == syscall.EINTR, e == syscall.EAGAIN:
			x.redo = true
		case res < 0:
			x.err = e
		}
		s.noteXfer(sm, x.op, t0, x.blocks, x.err)
		x.done = true
	})
	if err != nil {
		x.err, x.done = err, true
	}
}

// awaitXfer reaps ring completions until x is done and returns its error. A
// transfer the ring left partial is repeated synchronously, whole.
func (s *fileStore) awaitXfer(x *xfer) error {
	if !x.done {
		s.ring.waitFor(&x.done)
	}
	if x.redo {
		x.redo = false
		x.err = s.physOn(x.op, x.fname, x.buf, x.off)
	}
	return x.err
}

// transfer performs one positioned transfer on the calling goroutine and
// records it in the physical counters and histograms.
func (s *fileStore) transfer(op ioOp, fname string, buf []byte, off int64, blocks int) error {
	sm := s.sm.Load()
	t0 := clock(sm)
	err := s.physOn(op, fname, buf, off)
	s.noteXfer(sm, op, t0, blocks, err)
	return err
}

// physOn issues one positioned transfer for the file fname under the disk's
// fault injector and retry policy. With neither armed it is a bare transfer
// over the active backend, the io_uring when armed, else pread/pwrite. The
// test-only write hook models a device error below both.
func (s *fileStore) physOn(op ioOp, fname string, raw []byte, off int64) error {
	do := func() error {
		if op == opRead {
			return s.preadRaw(raw, off)
		}
		if s.testWriteErr != nil {
			if err := s.testWriteErr(off); err != nil {
				return err
			}
		}
		return s.pwriteRaw(raw, off)
	}
	if s.disk.Injector() == nil && s.disk.retry == nil {
		return do()
	}
	return s.disk.runPhys(op, fname, off, do)
}

// clock reads the wall clock only when metrics are attached.
func clock(sm *storeMetrics) time.Time {
	if sm == nil {
		return time.Time{}
	}
	return time.Now()
}

// noteXfer counts one completed physical transfer of blocks blocks started
// at t0 and, with metrics attached, records its latency and run length. The
// read-run histogram counts read-ahead windows only, so single-block reads
// stay out of it.
func (s *fileStore) noteXfer(sm *storeMetrics, op ioOp, t0 time.Time, blocks int, err error) {
	if op == opRead {
		s.physR.Add(1)
	} else {
		s.physW.Add(1)
	}
	if sm == nil {
		return
	}
	ns := int64(time.Since(t0))
	if op == opRead {
		sm.physReads.Inc()
		sm.physReadNS.ObserveEx(ns, s.disk.exemplarSeq())
		if err == nil && blocks > 1 {
			sm.readRunBlocks.Observe(int64(blocks))
		}
		return
	}
	sm.physWrites.Inc()
	sm.physWriteNS.ObserveEx(ns, s.disk.exemplarSeq())
	if err == nil {
		sm.writeRunBlocks.Observe(int64(blocks))
	}
}
