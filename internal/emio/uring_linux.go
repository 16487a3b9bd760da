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
// Concurrency model: many goroutines submit (the goroutine driving each
// disk, transfer goroutines), and whichever goroutine is blocked on the ring
// drives the completion queue itself. Every submission is one SQE with a
// completion callback (submitCallback): the submitter takes a slot from a
// bounded free list — the slot index is the SQE's user_data — preps the SQE
// under a mutex and flushes it with one enter. A single drive token (a
// one-slot channel) is the license to consume the CQ: a goroutine that needs
// a completion or a free slot either parks on its own channel or wins the
// token, drains every available CQE — running each slot's callback — and
// blocks in enter(GETEVENTS) for the next one. There is no standing reaper
// goroutine: the first design had one, and the two thread wakeups it added
// per I/O cost ~100x the blocking syscall it replaced on fast devices. With
// the waiter driving, a synchronous transfer is two thin syscalls and zero
// scheduler round-trips. The free list doubles as backpressure: in-flight
// submissions never exceed the SQ size, so the CQ (twice the SQ by default)
// cannot overflow. The store closes the ring only after its disks' transfers
// have completed; close still drives the CQ until every slot has retired, so
// late completions land before the mappings are released.
//
// Registered resources: the backing file is registered once (fixed-file index
// 0) and the store's long-lived transfer buffers — the parent disk's batch
// and window buffers and the scratch block — are registered as fixed
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

	mu          sync.Mutex // serializes SQE prep + flush
	unsubmitted uint32     // prepped SQEs the kernel has not consumed

	// cbs holds each in-flight slot's completion callback, set and cleared
	// under mu; whoever drains the slot's CQE runs it and recycles the slot.
	cbs       []func(res int32)
	freeSlots chan uint32
	// retired counts slots permanently withdrawn after submission errors (a
	// late completion could race their reuse); close() accounts for them.
	retired atomic.Uint32
	// slotWaiters counts goroutines committed to a blocking enter(GETEVENTS)
	// while waiting for a free slot. Slot release is channel-side — no CQE
	// backs it — so release() must poke the ring with a NOP when such a waiter
	// exists, or a slot freed after the waiter's last re-check could leave it
	// blocked in the kernel with no completion ever coming.
	slotWaiters atomic.Int32

	// drive is the CQ-ownership token: holding it licenses drain/enter on
	// the completion side. dead is closed when the ring fails hard; every
	// waiter selects on it so nothing hangs on a broken ring.
	drive    chan struct{}
	dead     chan struct{}
	closed   bool
	closeErr error

	// sm aliases the owning store's metrics pointer so submissions can record
	// batch-size and in-flight histograms when telemetry is attached.
	sm *atomic.Pointer[storeMetrics]
}

// newUring builds a ring of the given depth over f; on failure the store
// falls back to the syscall paths.
func newUring(f *os.File, depth int) (*uring, error) {
	if depth < 1 {
		depth = DefaultUringDepth
	}
	u, err := setupRing(uint32(depth))
	if err != nil {
		return nil, err
	}
	u.fileFD = int32(f.Fd())
	u.regFile = u.registerFileLocked(u.fileFD)
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
	u.freeSlots = make(chan uint32, p.sqEntries)
	for i := uint32(0); i < p.sqEntries; i++ {
		u.freeSlots <- i
	}
	u.drive = make(chan struct{}, 1)
	u.drive <- struct{}{}
	u.dead = make(chan struct{})
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

// registerFileLocked registers fd as fixed file 0; reports success.
func (u *uring) registerFileLocked(fd int32) bool {
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

// acquire takes a free slot, driving the completion queue if none is free
// (a slot can only come back by retiring a completion, and there may be no
// other goroutine around to do it). Fails only when the ring has died.
func (u *uring) acquire() (uint32, bool) {
	return await(u, u.freeSlots, true)
}

// release returns a slot to the free list. The release is channel-side — no
// CQE announces it — so when a driver has committed to a blocking
// enter(GETEVENTS) waiting for exactly this event, a NOP is submitted to
// manufacture the completion that wakes it.
func (u *uring) release(slot uint32) {
	u.freeSlots <- slot
	if u.slotWaiters.Load() > 0 {
		u.poke()
	}
}

// waitDone blocks until done is closed. Callers use it to wait on
// transfers whose callback only runs when somebody drains the CQE — with no
// standing reaper, that somebody must be the waiter itself. done MUST belong
// to a ring-driven completion (or already be closed): the blocking
// enter(GETEVENTS) inside relies on a CQE being in flight. It also returns
// when the ring dies, after abort has run every pending callback.
func (u *uring) waitDone(done <-chan struct{}) {
	await(u, done, false)
}

// await parks on ready until a value (or close) arrives, while competing for
// the drive token; the winner drains the completion queue and blocks in
// enter(GETEVENTS) for more, dispatching everyone's completions on the way.
// Returns ok=false when the ring is dead.
//
// slotWait marks a waiter whose ready channel is the free-slot list. Every
// other ready event is CQE-backed — the blocking enter is woken by the very
// completion being awaited — but a slot release is a plain channel send, so
// the waiter must register in slotWaiters before committing to the kernel and
// re-check afterwards: either the final re-check sees the released slot, or
// the releaser sees the registration and pokes a NOP completion through the
// ring to wake the enter. (Both sides use sequentially consistent atomics, so
// missing both is impossible.)
func await[T any](u *uring, ready <-chan T, slotWait bool) (T, bool) {
	var zero T
	for {
		select {
		case v := <-ready:
			return v, true
		case <-u.dead:
			return zero, false
		case <-u.drive:
			u.drain()
			// Re-check before blocking in the kernel: the drain may have
			// dispatched the very completion we are waiting on.
			select {
			case v := <-ready:
				u.drive <- struct{}{}
				return v, true
			case <-u.dead:
				u.drive <- struct{}{}
				return zero, false
			default:
			}
			if slotWait {
				u.slotWaiters.Add(1)
				// Final re-check, after the registration is visible: a slot
				// released before it missed both the drain and the poke.
				select {
				case v := <-ready:
					u.slotWaiters.Add(-1)
					u.drive <- struct{}{}
					return v, true
				default:
				}
			}
			_, err := u.enter(0, 1, uringEnterGetEvents)
			if slotWait {
				u.slotWaiters.Add(-1)
			}
			if err == nil {
				u.drain()
			}
			u.drive <- struct{}{}
			if err != nil {
				u.abort()
			}
		}
	}
}

// prepLocked writes one SQE and advances the submission tail. The queue is
// never full here: every flush hands the kernel all prepped SQEs before
// releasing the mutex.
func (u *uring) prepLocked(op ioOp, buf []byte, off int64, userData uint64) {
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

// prepNopLocked queues a NOP (shutdown poison, probe round-trips).
func (u *uring) prepNopLocked(userData uint64) {
	tail := atomic.LoadUint32(u.sqTail)
	u.sqes[tail&u.sqMask] = uringSQE{opcode: uringOpNop, fd: -1, userData: userData}
	atomic.StoreUint32(u.sqTail, tail+1)
}

// flushLocked hands n freshly prepped SQEs to the kernel with one
// io_uring_enter.
func (u *uring) flushLocked(n uint32) error {
	if sm := u.storeMetrics(); sm != nil {
		sm.uringSQEBatch.Observe(int64(n))
		sm.uringInflight.Observe(int64(len(u.cbs) - len(u.freeSlots)))
	}
	return u.flushRawLocked(n)
}

// flushRawLocked is flushLocked without the telemetry: pokes go through here
// so wakeup NOPs do not pollute the SQE-batch and queue-depth histograms.
func (u *uring) flushRawLocked(n uint32) error {
	u.unsubmitted += n
	for u.unsubmitted > 0 {
		done, err := u.enter(u.unsubmitted, 0, 0)
		if err != nil {
			return err
		}
		u.unsubmitted -= done
	}
	return nil
}

// pokeData is the reserved user_data of wakeup NOPs; it can never collide
// with a slot index, and dispatch drops its CQEs on the floor.
const pokeData = ^uint64(0)

// poke submits a NOP whose completion wakes a driver blocked in
// enter(GETEVENTS) — the manufactured CQE for events (slot releases) that the
// kernel cannot see. Rare by construction: only taken when slotWaiters
// reports a waiter committed to the kernel, i.e. the ring was saturated.
func (u *uring) poke() {
	u.mu.Lock()
	select {
	case <-u.dead:
		u.mu.Unlock()
		return
	default:
	}
	u.prepNopLocked(pokeData)
	err := u.flushRawLocked(1)
	u.mu.Unlock()
	if err != nil {
		u.abort()
	}
}

// submitCallback preps one transfer whose completion is dispatched to cb
// with the raw CQE result by whichever goroutine drains it; the slot is
// recycled after cb returns. cb runs on an arbitrary driving goroutine and
// must not block on ring completions. On error cb is guaranteed not to run,
// so the caller can fall back synchronously. A flush failure is an
// io_uring_enter hard error, so it also kills the ring — better every waiter
// fails fast than some hang on completions that will never be produced.
func (u *uring) submitCallback(op ioOp, buf []byte, off int64, cb func(res int32)) error {
	slot, ok := u.acquire()
	if !ok {
		return syscall.EIO
	}
	u.mu.Lock()
	select {
	case <-u.dead:
		u.mu.Unlock()
		u.release(slot)
		return syscall.EIO
	default:
	}
	u.cbs[slot] = cb
	u.prepLocked(op, buf, off, uint64(slot))
	err := u.flushLocked(1)
	if err != nil {
		u.cbs[slot] = nil
	}
	u.mu.Unlock()
	if err != nil {
		u.retire()
		u.abort()
	}
	return err
}

// rw runs one synchronous positioned transfer through the ring: submit one
// SQE, wait for its completion. Transient errnos and short transfers
// resubmit the remainder, so callers see whole-buffer semantics like
// ReadAt/WriteAt.
func (u *uring) rw(op ioOp, buf []byte, off int64) error {
	for {
		done := make(chan struct{})
		var res int32
		if err := u.submitCallback(op, buf, off, func(r int32) {
			res = r
			close(done)
		}); err != nil {
			return err
		}
		u.waitDone(done)
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

// drain consumes every available CQE and dispatches it. The caller holds the
// drive token — the sole license to advance the CQ head.
func (u *uring) drain() {
	for {
		head := atomic.LoadUint32(u.cqHead)
		if head == atomic.LoadUint32(u.cqTail) {
			return
		}
		cqe := u.cqes[head&u.cqMask]
		atomic.StoreUint32(u.cqHead, head+1)
		u.dispatch(cqe)
	}
}

// dispatch runs one CQE's callback inline, on whichever goroutine is
// driving, and recycles its slot. Wakeup NOPs carry no slot — their only job
// was returning the enter that drained them.
func (u *uring) dispatch(cqe uringCQE) {
	if cqe.userData == pokeData {
		return
	}
	slot := uint32(cqe.userData)
	u.mu.Lock()
	cb := u.cbs[slot]
	u.cbs[slot] = nil
	u.mu.Unlock()
	if cb != nil {
		cb(cqe.res)
		u.release(slot)
	}
}

// abort marks the ring dead and fails every pending callback so waiters
// unblock with EIO instead of hanging. Only reachable when io_uring_enter
// itself fails hard, which a healthy ring never does. Idempotent: concurrent
// aborters race benignly on the dead check.
func (u *uring) abort() {
	u.mu.Lock()
	select {
	case <-u.dead:
		u.mu.Unlock()
		return
	default:
	}
	for i, cb := range u.cbs {
		if cb != nil {
			u.cbs[i] = nil
			cb(-int32(syscall.EIO))
		}
	}
	close(u.dead)
	u.mu.Unlock()
}

// retire permanently withdraws a slot after a submission error: its SQE may
// sit unconsumed in the ring, and a late completion must not race the slot's
// reuse. close() counts retired slots as settled.
func (u *uring) retire() { u.retired.Add(1) }

// close shuts the ring down. The store calls this only after its disks'
// transfers have completed, but close still drives the CQ until every slot
// is back on the free list (or permanently retired) before releasing the
// mappings and the ring fd.
func (u *uring) close() error {
	if u.closed {
		return u.closeErr
	}
	u.closed = true
	for uint32(len(u.freeSlots))+u.retired.Load() < uint32(len(u.cbs)) {
		select {
		case <-u.dead:
			goto teardown
		case <-u.drive:
			u.drain()
			var err error
			if uint32(len(u.freeSlots))+u.retired.Load() < uint32(len(u.cbs)) {
				// Like acquire, this waits for a channel-side event (slots
				// coming home), so register for release()'s poke before
				// committing to the kernel.
				u.slotWaiters.Add(1)
				if uint32(len(u.freeSlots))+u.retired.Load() < uint32(len(u.cbs)) {
					if _, err = u.enter(0, 1, uringEnterGetEvents); err == nil {
						u.drain()
					}
				}
				u.slotWaiters.Add(-1)
			}
			u.drive <- struct{}{}
			if err != nil {
				u.abort()
			}
		}
	}
teardown:
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
	u.prepNopLocked(0)
	if _, err := u.enter(1, 1, uringEnterGetEvents); err != nil {
		return false
	}
	return atomic.LoadUint32(u.cqHead) != atomic.LoadUint32(u.cqTail)
}
