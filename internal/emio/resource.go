package emio

// Disk-byte budget enforcement.
//
// The EM model assumes unbounded disk, but a real machine has a scratch
// quota and a device that eventually returns ENOSPC. The diskBudget mirrors
// the memory Accountant for disk bytes: every block append charges one
// block's worth of bytes before touching the store, every release credits
// them back, and a charge that would exceed the configured limit fails with
// a typed *ResourceError carrying the live usage — the same error shape a
// real ENOSPC from the device is wrapped into, so callers handle "the model
// says you're out of disk" and "the device says you're out of disk"
// identically.

import (
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
)

// ErrDiskBudget marks disk-byte quota rejections, so callers can tell a
// model-enforced budget failure from a real device ENOSPC with errors.Is
// (both arrive wrapped in a *ResourceError).
var ErrDiskBudget = errors.New("emio: disk budget exceeded")

// ResourceError reports an operation abandoned because a storage resource
// ran out. It carries the live usage at the moment of failure so an operator
// (or an admission controller) can size the retry. Err is ErrDiskBudget for
// quota rejections and the device errno (syscall.ENOSPC) for real
// exhaustion; Budget is 0 in the latter case, where no model quota was set.
type ResourceError struct {
	Resource  string // the exhausted resource ("disk")
	File      string // file whose append hit the wall
	Used      int64  // live bytes charged when the failure hit
	Requested int64  // bytes the failed operation asked for (0 when unknown)
	Budget    int64  // configured quota in bytes; 0 when unbounded
	Err       error  // ErrDiskBudget or the device errno
}

func (e *ResourceError) Error() string {
	if e.Budget > 0 && errors.Is(e.Err, ErrDiskBudget) {
		return fmt.Sprintf("emio: %s budget exceeded appending to %s: %d live + %d requested > %d budget",
			e.Resource, e.File, e.Used, e.Requested, e.Budget)
	}
	return fmt.Sprintf("emio: %s exhausted on %s (%d bytes live): %v", e.Resource, e.File, e.Used, e.Err)
}

func (e *ResourceError) Unwrap() error { return e.Err }

// diskBudget is the disk-byte accountant of one Disk. With limit <= 0 it meters without enforcing, so DiskBytes and
// PeakDiskBytes report real footprints even on unbudgeted runs; the cost is
// one atomic add per block append or release, next to a syscall.
type diskBudget struct {
	limit int64 // quota in bytes; <= 0 meters only. Set before I/O starts.
	used  atomic.Int64
	peak  atomic.Int64
}

// charge reserves n bytes for an append to fname, failing with a typed
// *ResourceError when the quota would be exceeded. Lock-free CAS like the
// memory Accountant's.
func (a *diskBudget) charge(fname string, n int64) error {
	for {
		cur := a.used.Load()
		if a.limit > 0 && cur+n > a.limit {
			return &ResourceError{
				Resource: "disk", File: fname,
				Used: cur, Requested: n, Budget: a.limit,
				Err: ErrDiskBudget,
			}
		}
		if a.used.CompareAndSwap(cur, cur+n) {
			a.raisePeak(cur + n)
			return nil
		}
	}
}

// force records n bytes without enforcement: harness staging (BuildFile) and
// crash-resume adoption (AdoptFile) account blocks that already exist and
// must never be rejected.
func (a *diskBudget) force(n int64) {
	a.raisePeak(a.used.Add(n))
}

// credit returns n bytes to the budget.
func (a *diskBudget) credit(n int64) {
	if a.used.Add(-n) < 0 {
		panic("emio: disk budget credit below zero")
	}
}

func (a *diskBudget) raisePeak(v int64) {
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// SetDiskBudget arms disk-byte quota enforcement at limit bytes (scratch and
// backing alike, charged block-granular at B·16 bytes per block); limit <= 0
// meters without enforcing. Configure before I/O starts.
func (d *Disk) SetDiskBudget(limit int64) {
	if d.budget == nil {
		return
	}
	d.budget.limit = limit
	if limit > 0 {
		d.log(slog.LevelDebug, "disk budget armed", slog.Int64("bytes", limit))
	}
}

// DiskBudget returns the configured disk-byte quota, 0 when unbounded.
func (d *Disk) DiskBudget() int64 {
	if d.budget == nil {
		return 0
	}
	return max(d.budget.limit, 0)
}

// DiskBytes returns the bytes currently charged against the disk budget:
// one block's B·16 bytes for every live (unreleased, unconsumed) block.
func (d *Disk) DiskBytes() int64 {
	if d.budget == nil {
		return 0
	}
	return d.budget.used.Load()
}

// PeakDiskBytes returns the high-water mark of DiskBytes.
func (d *Disk) PeakDiskBytes() int64 {
	if d.budget == nil {
		return 0
	}
	return d.budget.peak.Load()
}

// blockBytes is the budget charge of one block: a full block's on-disk size.
// Partial blocks are charged like full ones — extent granularity, and what
// the free-list allocator actually reserves.
func (d *Disk) blockBytes() int64 {
	return int64(d.blockSize) * elemBytes
}

// BlockBytes returns the byte size of one block as the disk budget charges
// it, for callers sizing their transient footprint against DiskBudget.
func (d *Disk) BlockBytes() int64 { return d.blockBytes() }

// ConsumeLag is how many blocks a consuming Reader keeps behind its current
// block before reclaiming them, on every disk, so a merge under a disk
// budget does the same I/O on every backend. Algorithms degrading under a
// disk budget use it to bound the transient footprint of a consuming merge:
// fan-in f holds at most f·(ConsumeLag+1) unreclaimed input blocks.
const ConsumeLag = 1

// chargeAppend reserves one block against the disk budget on behalf of f,
// bumping the quota-rejection telemetry on failure. Called by AppendBlock
// before the store sees the payload; a store-level failure rolls the charge
// back with creditBlocks.
func (d *Disk) chargeAppend(f *File) error {
	if d.budget == nil {
		return nil
	}
	if err := d.budget.charge(f.name, d.blockBytes()); err != nil {
		if d.iom != nil {
			d.iom.quotaRejects.Inc()
		}
		d.log(slog.LevelWarn, "append rejected by disk budget",
			slog.String("file", f.name), slog.Int64("used", d.budget.used.Load()),
			slog.Int64("budget", d.budget.limit))
		return err
	}
	return nil
}

// creditBlocks returns n blocks' bytes to the budget (release paths and
// append rollback).
func (d *Disk) creditBlocks(n int64) {
	if d.budget == nil || n == 0 {
		return
	}
	d.budget.credit(n * d.blockBytes())
}

// forceBlocks records n blocks' bytes without enforcement (staging, resume
// adoption).
func (d *Disk) forceBlocks(n int64) {
	if d.budget == nil || n == 0 {
		return
	}
	d.budget.force(n * d.blockBytes())
}
