//go:build linux && (amd64 || arm64 || riscv64)

package emio

// A pure-Go io_uring backend over raw syscalls: io_uring_setup creates the
// ring, the SQ/CQ rings and SQE array are mmap'd into the process, and
// io_uring_enter submits and waits. No cgo and no external packages; the
// build tag names exactly the Linux ports where syscall numbers 425–427 are
// those of io_uring_setup/enter/register.
//
// The ring swaps only how raw positioned transfers reach the device — SQE
// submission and CQE completion instead of pread/pwrite syscalls — and sits
// strictly below the EM model: logical I/O accounting, fault hooks,
// checksums, retry and tracing run exactly as they do for the syscall paths,
// so outputs, Stats and trace JSON are bit-identical across {buffered,
// direct, uring}.
//
// Single owner: every ring call runs on the goroutine that drives the disk
// (the I/O engine's submissions and waits, its synchronous transfers — a
// block no read-ahead window holds, each attempt under the retry and fault
// layers — and close), so the ring takes no lock. Every submission is one
// SQE with a completion callback (submitCallback): it takes a slot from the
// free list — the slot index is the SQE's user_data — preps the SQE and
// hands it to the kernel with one enter. Completions are reaped only when
// the owner needs one: a submission that finds no free slot, a wait for one
// transfer (waitFor) and close drain every available CQE, running each
// slot's callback, and otherwise block in enter(GETEVENTS) for the next.
// Each of them waits only while a slot is in flight, so a CQE is always
// coming. There is no reaper goroutine: the first design had one, and the
// two thread wakeups it added per I/O cost ~100x the blocking syscall it
// replaced on fast devices. The slot count bounds the submissions in flight
// by the SQ size, so the CQ (twice the SQ by default) cannot overflow. An
// enter failure kills the ring: every pending callback fails with EIO and
// later submissions fail at once.
//
// Registered resources: the backing file is registered once (fixed-file index
// 0) and the store's long-lived transfer buffers — the engine's batch and
// window buffers and the scratch block — are registered as fixed
// buffers, so transfers through them submit READ_FIXED/WRITE_FIXED opcodes
// that skip per-I/O pinning. Registration failures (e.g. RLIMIT_MEMLOCK)
// degrade to the plain READ/WRITE opcodes.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Raw io_uring ABI. Syscall numbers are identical on amd64, arm64 and
// riscv64 (the build tag admits exactly those).
const (
	sysIOUringSetup    = 425
	sysIOUringEnter    = 426
	sysIOUringRegister = 427

	uringOffSQRing = 0
	uringOffCQRing = 0x8000000
	uringOffSQEs   = 0x10000000

	uringEnterGetEvents = 1 << 0

	uringFeatSingleMmap = 1 << 0

	uringOpNop        = 0
	uringOpReadFixed  = 4
	uringOpWriteFixed = 5
	uringOpRead       = 22
	uringOpWrite      = 23

	uringRegisterBuffers = 0
	uringRegisterFiles   = 2

	uringSQEFixedFile = 1 << 0
)

// uringParams is struct io_uring_params (120 bytes).
type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFD         uint32
	resv         [3]uint32
	sqOff        uringSQOffsets
	cqOff        uringCQOffsets
}

// uringSQOffsets is struct io_sqring_offsets.
type uringSQOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

// uringCQOffsets is struct io_cqring_offsets.
type uringCQOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

// uringSQE is struct io_uring_sqe (64 bytes).
type uringSQE struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	rwFlags     uint32
	userData    uint64
	bufIndex    uint16
	personality uint16
	spliceFDIn  int32
	pad         [2]uint64
}

// uringCQE is struct io_uring_cqe (16 bytes).
type uringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// uring is one io_uring instance bound to one backing file.
type uring struct {
	ringFD int

	sqMem, cqMem, sqeMem []byte
	singleMmap           bool

	sqTail  *uint32
	sqMask  uint32
	sqArray []uint32
	sqes    []uringSQE

	cqHead, cqTail *uint32
	cqMask         uint32
	cqes           []uringCQE

	regFile   bool  // backing file registered at fixed-file index 0
	fileFD    int32 // raw backing fd, used when !regFile
	fixedBufs [][]byte

	// cbs holds each in-flight slot's completion callback; the reap that
	// drains the slot's CQE runs it and puts the slot back on free.
	cbs      []func(res int32)
	free     []uint32
	broken   bool // an enter failed; every submission now fails with EIO
	closed   bool
	closeErr error

	// sm aliases the owning store's metrics pointer so submissions can record
	// batch-size and in-flight histograms when telemetry is attached.
	sm *atomic.Pointer[storeMetrics]
}

// newUring builds a ring of the given depth over f; on failure the store
// falls back to the syscall paths.
func newUring(f *os.File, depth int) (*uring, error) {
	u, err := setupRing(uint32(depth))
	if err != nil {
		return nil, err
	}
	u.fileFD = int32(f.Fd())
	u.regFile = u.registerFile(u.fileFD)
	return u, nil
}

// setupRing performs io_uring_setup, maps the three ring regions and builds
// the slot table. The kernel rounds entries up to a power of two; all sizes
// below use what it reports back.
func setupRing(entries uint32) (*uring, error) {
	var p uringParams
	fd, _, errno := syscall.Syscall(sysIOUringSetup, uintptr(entries), uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("emio: io_uring_setup: %w", errno)
	}
	u := &uring{ringFD: int(fd)}
	if err := u.mmapRings(&p); err != nil {
		syscall.Close(u.ringFD)
		return nil, err
	}
	for i := range u.sqArray {
		// Identity map: SQE i lives at array slot i; only the tail moves.
		u.sqArray[i] = uint32(i)
	}
	u.cbs = make([]func(int32), p.sqEntries)
	for i := range p.sqEntries {
		u.free = append(u.free, i)
	}
	return u, nil
}

// mmapRings maps the SQ ring, CQ ring and SQE array and resolves the cursor
// pointers from the kernel-reported offsets. Modern kernels serve SQ and CQ
// from a single mapping (IORING_FEAT_SINGLE_MMAP).
func (u *uring) mmapRings(p *uringParams) error {
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(uringCQE{}))
	u.singleMmap = p.features&uringFeatSingleMmap != 0
	if u.singleMmap && cqSize > sqSize {
		sqSize = cqSize
	}
	prot, flags := syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE
	sqMem, err := syscall.Mmap(u.ringFD, uringOffSQRing, sqSize, prot, flags)
	if err != nil {
		return fmt.Errorf("emio: mmap sq ring: %w", err)
	}
	u.sqMem = sqMem
	if u.singleMmap {
		u.cqMem = sqMem
	} else {
		cqMem, err := syscall.Mmap(u.ringFD, uringOffCQRing, cqSize, prot, flags)
		if err != nil {
			u.munmapAll()
			return fmt.Errorf("emio: mmap cq ring: %w", err)
		}
		u.cqMem = cqMem
	}
	sqeMem, err := syscall.Mmap(u.ringFD, uringOffSQEs, int(p.sqEntries)*int(unsafe.Sizeof(uringSQE{})), prot, flags)
	if err != nil {
		u.munmapAll()
		return fmt.Errorf("emio: mmap sqe array: %w", err)
	}
	u.sqeMem = sqeMem
	at := func(mem []byte, off uint32) *uint32 { return (*uint32)(unsafe.Pointer(&mem[off])) }
	u.sqTail = at(sqMem, p.sqOff.tail)
	u.sqMask = *at(sqMem, p.sqOff.ringMask)
	u.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&sqMem[p.sqOff.array])), p.sqEntries)
	u.cqHead = at(u.cqMem, p.cqOff.head)
	u.cqTail = at(u.cqMem, p.cqOff.tail)
	u.cqMask = *at(u.cqMem, p.cqOff.ringMask)
	u.cqes = unsafe.Slice((*uringCQE)(unsafe.Pointer(&u.cqMem[p.cqOff.cqes])), p.cqEntries)
	u.sqes = unsafe.Slice((*uringSQE)(unsafe.Pointer(&sqeMem[0])), p.sqEntries)
	return nil
}

func (u *uring) munmapAll() {
	if u.sqeMem != nil {
		syscall.Munmap(u.sqeMem)
		u.sqeMem = nil
	}
	if u.cqMem != nil && !u.singleMmap {
		syscall.Munmap(u.cqMem)
	}
	u.cqMem = nil
	if u.sqMem != nil {
		syscall.Munmap(u.sqMem)
		u.sqMem = nil
	}
}

// destroy tears down a ring that never carried a transfer (the probe).
func (u *uring) destroy() {
	u.munmapAll()
	syscall.Close(u.ringFD)
}

// enter wraps io_uring_enter, retrying the transient errnos: EINTR (signal),
// and EAGAIN/EBUSY (kernel out of internal resources / CQ pressure).
func (u *uring) enter(toSubmit, minComplete, flags uint32) (uint32, error) {
	for {
		n, _, errno := syscall.Syscall6(sysIOUringEnter, uintptr(u.ringFD),
			uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
		switch errno {
		case 0:
			return uint32(n), nil
		case syscall.EINTR:
		case syscall.EAGAIN, syscall.EBUSY:
			runtime.Gosched()
		default:
			return 0, fmt.Errorf("emio: io_uring_enter: %w", errno)
		}
	}
}

// register wraps io_uring_register.
func (u *uring) register(op uintptr, arg unsafe.Pointer, n uintptr) error {
	if _, _, errno := syscall.Syscall6(sysIOUringRegister, uintptr(u.ringFD),
		op, uintptr(arg), n, 0, 0); errno != 0 {
		return errno
	}
	return nil
}

// registerFile registers fd as fixed file 0; reports success.
func (u *uring) registerFile(fd int32) bool {
	fds := [1]int32{fd}
	return u.register(uringRegisterFiles, unsafe.Pointer(&fds[0]), 1) == nil
}

// registerBuffers pins bufs as fixed buffers so transfers inside them can use
// the *_FIXED opcodes. Best effort: on failure (commonly RLIMIT_MEMLOCK) the
// ring keeps working with the plain opcodes. The registered slices are
// retained so their memory stays live for the ring's lifetime.
func (u *uring) registerBuffers(bufs [][]byte) {
	if len(bufs) == 0 {
		return
	}
	iovs := make([]syscall.Iovec, len(bufs))
	for i, b := range bufs {
		iovs[i].Base = &b[0]
		iovs[i].SetLen(len(b))
	}
	if u.register(uringRegisterBuffers, unsafe.Pointer(&iovs[0]), uintptr(len(iovs))) != nil {
		return
	}
	u.fixedBufs = bufs
}

// fixedIndex reports the registered buffer wholly containing buf, if any.
// The table holds at most a handful of pooled buffers, so a linear scan is
// cheaper than any index.
func (u *uring) fixedIndex(buf []byte) (uint16, bool) {
	if len(u.fixedBufs) == 0 || len(buf) == 0 {
		return 0, false
	}
	a := uintptr(unsafe.Pointer(&buf[0]))
	for i, rb := range u.fixedBufs {
		base := uintptr(unsafe.Pointer(&rb[0]))
		if a >= base && a+uintptr(len(buf)) <= base+uintptr(len(rb)) {
			return uint16(i), true
		}
	}
	return 0, false
}

func (u *uring) storeMetrics() *storeMetrics {
	if u.sm == nil {
		return nil
	}
	return u.sm.Load()
}

// --- submission -----------------------------------------------------------

// prep writes one SQE and advances the submission tail. The queue is never
// full here: every flush hands the kernel all prepped SQEs.
func (u *uring) prep(op ioOp, buf []byte, off int64, userData uint64) {
	tail := atomic.LoadUint32(u.sqTail)
	sqe := &u.sqes[tail&u.sqMask]
	*sqe = uringSQE{userData: userData}
	if op == opRead {
		sqe.opcode = uringOpRead
	} else {
		sqe.opcode = uringOpWrite
	}
	if idx, ok := u.fixedIndex(buf); ok {
		if op == opRead {
			sqe.opcode = uringOpReadFixed
		} else {
			sqe.opcode = uringOpWriteFixed
		}
		sqe.bufIndex = idx
	}
	if u.regFile {
		sqe.fd = 0
		sqe.flags = uringSQEFixedFile
	} else {
		sqe.fd = u.fileFD
	}
	sqe.off = uint64(off)
	if len(buf) > 0 {
		sqe.addr = uint64(uintptr(unsafe.Pointer(&buf[0])))
	}
	sqe.len = uint32(len(buf))
	atomic.StoreUint32(u.sqTail, tail+1)
}

// prepNop queues a NOP (the probe's round-trip).
func (u *uring) prepNop() {
	tail := atomic.LoadUint32(u.sqTail)
	u.sqes[tail&u.sqMask] = uringSQE{opcode: uringOpNop, fd: -1}
	atomic.StoreUint32(u.sqTail, tail+1)
}

// flush hands n freshly prepped SQEs to the kernel with one io_uring_enter.
func (u *uring) flush(n uint32) error {
	if sm := u.storeMetrics(); sm != nil {
		sm.uringSQEBatch.Observe(int64(n))
		sm.uringInflight.Observe(int64(len(u.cbs) - len(u.free)))
	}
	for n > 0 {
		done, err := u.enter(n, 0, 0)
		if err != nil {
			return err
		}
		n -= done
	}
	return nil
}

// submitCallback preps one transfer whose completion is dispatched to cb
// with the raw CQE result by whichever reap drains it; the slot is recycled
// after cb returns. With no slot free it reaps until one is. On error cb is
// guaranteed not to run, so the caller can fall back synchronously. A flush
// failure is an io_uring_enter hard error, so it also kills the ring: better
// every pending transfer fails fast than some wait on completions that will
// never be produced. The failed submission's slot stays withdrawn, since its
// SQE may still sit in the ring.
func (u *uring) submitCallback(op ioOp, buf []byte, off int64, cb func(res int32)) error {
	for len(u.free) == 0 && !u.broken {
		u.reap()
	}
	if u.broken {
		return syscall.EIO
	}
	slot := u.free[len(u.free)-1]
	u.free = u.free[:len(u.free)-1]
	u.cbs[slot] = cb
	u.prep(op, buf, off, uint64(slot))
	if err := u.flush(1); err != nil {
		u.cbs[slot] = nil
		u.abort()
		return err
	}
	return nil
}

// rw runs one synchronous positioned transfer through the ring: submit one
// SQE, wait for its completion. Transient errnos and short transfers
// resubmit the remainder, so callers see whole-buffer semantics like
// ReadAt/WriteAt.
func (u *uring) rw(op ioOp, buf []byte, off int64) error {
	for {
		var res int32
		done := false
		if err := u.submitCallback(op, buf, off, func(r int32) { res, done = r, true }); err != nil {
			return err
		}
		u.waitFor(&done)
		if res >= 0 {
			if int(res) == len(buf) {
				return nil
			}
			if res == 0 {
				if op == opRead {
					return io.ErrUnexpectedEOF
				}
				return io.ErrShortWrite
			}
			buf, off = buf[res:], off+int64(res)
			continue
		}
		if e := syscall.Errno(-res); e != syscall.EINTR && e != syscall.EAGAIN {
			return e
		}
	}
}

func (u *uring) pread(buf []byte, off int64) error  { return u.rw(opRead, buf, off) }
func (u *uring) pwrite(buf []byte, off int64) error { return u.rw(opWrite, buf, off) }

// --- completion -----------------------------------------------------------

// waitFor reaps completions until *done is set by the callback of a
// submission in flight. A broken ring has already run every pending callback,
// so it returns at once.
func (u *uring) waitFor(done *bool) {
	for !*done {
		u.reap()
	}
}

// reap runs the callbacks of every available CQE and, when there are none,
// blocks in enter(GETEVENTS) for the next one. Callers reap only while a
// slot is in flight, so a completion is always coming. An enter failure
// kills the ring instead.
func (u *uring) reap() {
	if u.drain() {
		return
	}
	if _, err := u.enter(0, 1, uringEnterGetEvents); err != nil {
		u.abort()
		return
	}
	u.drain()
}

// drain consumes every available CQE, runs its slot's callback and frees
// the slot. It reports whether there was any.
func (u *uring) drain() bool {
	got := false
	for {
		head := atomic.LoadUint32(u.cqHead)
		if head == atomic.LoadUint32(u.cqTail) {
			return got
		}
		cqe := u.cqes[head&u.cqMask]
		atomic.StoreUint32(u.cqHead, head+1)
		slot := uint32(cqe.userData)
		if cb := u.cbs[slot]; cb != nil {
			u.cbs[slot] = nil
			cb(cqe.res)
			u.free = append(u.free, slot)
		}
		got = true
	}
}

// abort marks the ring broken and fails every pending callback with EIO, so
// no wait hangs. Only reachable when io_uring_enter itself fails hard, which
// a healthy ring never does.
func (u *uring) abort() {
	u.broken = true
	for i, cb := range u.cbs {
		if cb != nil {
			u.cbs[i] = nil
			cb(-int32(syscall.EIO))
		}
	}
}

// close shuts the ring down. The store calls this only after its disk's
// transfers have completed, but close still reaps until every slot is free
// (or the ring is broken) before releasing the mappings and the ring fd, so
// no late completion lands in unmapped memory.
func (u *uring) close() error {
	if u.closed {
		return u.closeErr
	}
	u.closed = true
	for !u.broken && len(u.free) < len(u.cbs) {
		u.reap()
	}
	u.munmapAll()
	u.closeErr = syscall.Close(u.ringFD)
	return u.closeErr
}

// --- capability probe -----------------------------------------------------

var uringProbe struct {
	once sync.Once
	ok   bool
}

// UringSupported reports whether the running kernel accepts io_uring rings —
// a setup plus one NOP submission round-trip, cached for the process.
// Mirrors DirectIOSupported: callers gate Pipeline.Uring on it, and the knob
// silently degrades to the syscall paths when it reports false.
func UringSupported() bool {
	uringProbe.once.Do(func() { uringProbe.ok = probeUring() })
	return uringProbe.ok
}

func probeUring() bool {
	u, err := setupRing(2)
	if err != nil {
		return false
	}
	defer u.destroy()
	u.prepNop()
	if _, err := u.enter(1, 1, uringEnterGetEvents); err != nil {
		return false
	}
	return atomic.LoadUint32(u.cqHead) != atomic.LoadUint32(u.cqTail)
}
