package emio

// A deterministic physical-fault harness, promoted from test-only code so
// every backend can be exercised under device failure. An Injector sits
// below the retry layer and above the positioned-I/O syscalls: each physical
// transfer asks it for a fault episode keyed by the transfer's per-kind
// sequence number. Episodes can fail a fixed number of attempts and then
// succeed (transient, marked ErrTransient so the retry layer recognizes
// them), or fail every attempt (permanent). A seeded probabilistic mode
// generates such episodes at configurable rates.
//
// The injector plugs into both backends through Disk.SetInjector: the
// memory store consults it as a model of a physical transfer, the file store
// consults it in front of every ReadAt/WriteAt. While it is armed the I/O
// engine issues one transfer per block, in order, on the goroutine driving
// the disk.
// Scripted schedules are keyed per kind (read ops and write ops count
// independently), so a schedule is deterministic for a given backend
// configuration; the physical op sequence itself differs across backends
// (coalescing, staging reads), which is exactly what the fault matrix
// sweeps. Attach the injector after staging inputs, or the staging writes
// consume schedule slots.
//
// Bit-rot is modeled separately by Disk.CorruptBlock, which flips a chosen
// bit of a stored block at rest.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
)

// ErrInjected marks every failure produced by an Injector, so tests can tell
// injected faults from real device errors with errors.Is.
var ErrInjected = errors.New("emio: injected fault")

// Injector is a deterministic schedule of physical-transfer faults. Safe for
// concurrent use (several disks, or a harness and a running job, may share
// one); scheduling calls (FailRead/FailWrite/Probabilistic) should happen
// before I/O starts.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plans [2]map[int64]*plannedFault // scripted episodes by per-kind op index
	nops  [2]int64                   // physical transfers seen, per kind

	pTransient float64 // probability of a transient episode per transfer
	pPermanent float64 // probability of a permanent episode per transfer
	burst      int     // max failed attempts of one probabilistic transient episode

	// crashHook runs when a crash-point schedule (CrashRead/CrashWrite)
	// fires; nil means the default, which SIGKILLs the process — the crash
	// harness's scripted "power cut". Tests replace it with SetCrashHook.
	crashHook func(op string, idx int64)

	stats InjectorStats
}

// InjectorStats counts what an Injector saw and did.
type InjectorStats struct {
	Reads     int64 // physical read transfers inspected
	Writes    int64 // physical write transfers inspected
	Transient int64 // attempts failed transiently
	Permanent int64 // attempts failed permanently
}

// NewInjector creates an idle injector whose probabilistic mode (if armed)
// draws from a PCG stream seeded with seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		rng: rand.New(rand.NewPCG(seed, 0x9e3779b9)),
		plans: [2]map[int64]*plannedFault{
			{}, {},
		},
	}
}

// FailRead schedules the op'th physical read (0-based, counted independently
// of writes) to fail times attempts before succeeding; times < 0 makes the
// fault permanent. Retries of the transfer replay the episode without
// advancing the schedule.
func (inj *Injector) FailRead(op int64, times int) { inj.schedule(opRead, op, times) }

// FailWrite is FailRead for physical writes.
func (inj *Injector) FailWrite(op int64, times int) { inj.schedule(opWrite, op, times) }

// FailReadErr schedules the op'th physical read to fail permanently with the
// given cause as the underlying error — the errno schedule: a cause of
// syscall.ENOSPC models a full device, and the store layer wraps the failure
// into a typed *ResourceError exactly as it would a real ENOSPC. The cause
// is not marked transient, so the retry layer never spends attempts on it.
func (inj *Injector) FailReadErr(op int64, cause error) { inj.scheduleErr(opRead, op, cause) }

// FailWriteErr is FailReadErr for physical writes.
func (inj *Injector) FailWriteErr(op int64, cause error) { inj.scheduleErr(opWrite, op, cause) }

// CrashRead schedules the crash hook to fire at the op'th physical read: the
// crash-point schedule of the kill-resume harness. The default hook SIGKILLs
// the process — no deferred cleanup, no flushes, the closest software
// approximation of a power cut.
func (inj *Injector) CrashRead(op int64) { inj.scheduleCrash(opRead, op) }

// CrashWrite is CrashRead for physical writes.
func (inj *Injector) CrashWrite(op int64) { inj.scheduleCrash(opWrite, op) }

// SetCrashHook replaces the process-kill default for crash-point schedules
// (tests observe the crash point instead of dying). A hook that returns
// fails the attempt permanently with ErrInjected, so the schedule stays
// visible in the error flow.
func (inj *Injector) SetCrashHook(h func(op string, idx int64)) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.crashHook = h
}

func (inj *Injector) schedule(kind ioOp, op int64, times int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.plans[kind][op] = &plannedFault{
		inj: inj, kind: kind, op: op,
		remaining: times, permanent: times < 0,
	}
}

func (inj *Injector) scheduleErr(kind ioOp, op int64, cause error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.plans[kind][op] = &plannedFault{
		inj: inj, kind: kind, op: op,
		permanent: true, cause: cause,
	}
}

func (inj *Injector) scheduleCrash(kind ioOp, op int64) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.plans[kind][op] = &plannedFault{
		inj: inj, kind: kind, op: op, crash: true,
	}
}

// defaultCrashHook (faultinject_unix.go / faultinject_other.go) is the
// scripted "power cut": SIGKILL leaves no chance for deferred cleanup,
// buffered flushes or journal appends — exactly the crash model
// checkpoint/resume must survive.

// Probabilistic arms seeded random fault generation: each physical transfer
// independently draws a permanent episode with probability pPermanent, else a
// transient episode with probability pTransient lasting 1..burst attempts.
func (inj *Injector) Probabilistic(pTransient, pPermanent float64, burst int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.pTransient, inj.pPermanent = pTransient, pPermanent
	inj.burst = max(burst, 1)
}

// Stats returns a snapshot of the injector's counters.
func (inj *Injector) Stats() InjectorStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// begin assigns the next per-kind op index to one physical transfer and
// returns its fault episode, nil for a clean transfer. Called exactly once
// per transfer, before the first attempt.
func (inj *Injector) begin(kind ioOp) *plannedFault {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	idx := inj.nops[kind]
	inj.nops[kind]++
	if kind == opRead {
		inj.stats.Reads++
	} else {
		inj.stats.Writes++
	}
	if pf := inj.plans[kind][idx]; pf != nil {
		return pf
	}
	if inj.pPermanent > 0 && inj.rng.Float64() < inj.pPermanent {
		return &plannedFault{inj: inj, kind: kind, op: idx, permanent: true}
	}
	if inj.pTransient > 0 && inj.rng.Float64() < inj.pTransient {
		return &plannedFault{inj: inj, kind: kind, op: idx, remaining: 1 + inj.rng.IntN(inj.burst)}
	}
	return nil
}

// plannedFault is one fault episode bound to one physical transfer: it fails
// the transfer's next remaining attempts (or every attempt when permanent).
type plannedFault struct {
	inj       *Injector
	kind      ioOp
	op        int64
	remaining int
	permanent bool
	cause     error // errno schedules: underlying error of a permanent fault
	crash     bool  // crash-point schedules: fire the crash hook instead
}

// next is consulted once per attempt of the bound transfer; nil receivers
// (clean transfers) always pass.
func (pf *plannedFault) next() error {
	if pf == nil {
		return nil
	}
	pf.inj.mu.Lock()
	if pf.crash {
		// Call the hook outside the lock: the default never returns, and a
		// test hook may legitimately touch the injector.
		hook := pf.inj.crashHook
		pf.inj.mu.Unlock()
		if hook == nil {
			hook = defaultCrashHook
		}
		hook(pf.kind.String(), pf.op)
		return fmt.Errorf("%w: crash point at %s op #%d", ErrInjected, pf.kind, pf.op)
	}
	defer pf.inj.mu.Unlock()
	if pf.permanent {
		pf.inj.stats.Permanent++
		if pf.cause != nil {
			return fmt.Errorf("%w: %w at %s op #%d", ErrInjected, pf.cause, pf.kind, pf.op)
		}
		return fmt.Errorf("%w: permanent %s fault at op #%d", ErrInjected, pf.kind, pf.op)
	}
	if pf.remaining <= 0 {
		return nil
	}
	pf.remaining--
	pf.inj.stats.Transient++
	return fmt.Errorf("%w: %w: %s op #%d", ErrTransient, ErrInjected, pf.kind, pf.op)
}
