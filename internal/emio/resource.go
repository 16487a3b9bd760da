package emio

// Disk-byte budget enforcement.
//
// The EM model assumes unbounded disk, but a real machine has a scratch
// quota and a device that eventually returns ENOSPC. The disk budget bounds
// the live footprint the disk already counts (Disk.LiveBlocks, one block's
// B·16 bytes each): a block append is admitted before it touches the store
// only when one more block fits under the limit, and a rejection fails with
// a typed *ResourceError carrying the live usage — the same error shape a
// real ENOSPC from the device is wrapped into, so callers handle "the model
// says you're out of disk" and "the device says you're out of disk"
// identically.

import (
	"errors"
	"fmt"
	"log/slog"
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

// SetDiskBudget arms disk-byte quota enforcement at limit bytes (scratch and
// backing alike, counted block-granular at B·16 bytes per block); limit <= 0
// leaves the disk unbounded. Configure before I/O starts.
func (d *Disk) SetDiskBudget(limit int64) {
	d.quota = max(limit, 0)
	if limit > 0 {
		d.log(slog.LevelDebug, "disk budget armed", slog.Int64("bytes", limit))
	}
}

// DiskBudget returns the configured disk-byte quota, 0 when unbounded.
func (d *Disk) DiskBudget() int64 { return d.quota }

// DiskBytes returns the bytes the disk budget counts against its limit: one
// block's B·16 bytes for every live (unreleased, unconsumed) block.
func (d *Disk) DiskBytes() int64 { return d.liveBlocks * d.blockBytes() }

// blockBytes is the budget's count of one block: a full block's on-disk size.
// Partial blocks count like full ones — extent granularity, and what
// the free-list allocator actually reserves.
func (d *Disk) blockBytes() int64 {
	return int64(d.blockSize) * elemBytes
}

// BlockBytes returns the byte size of one block as the disk budget counts
// it, for callers sizing their transient footprint against DiskBudget.
func (d *Disk) BlockBytes() int64 { return d.blockBytes() }

// ConsumeLag is how many blocks a consuming Reader keeps behind its current
// block before reclaiming them, on every disk, so a merge under a disk
// budget does the same I/O on every backend. Algorithms degrading under a
// disk budget use it to bound the transient footprint of a consuming merge:
// fan-in f holds at most f·(ConsumeLag+1) unreclaimed input blocks.
const ConsumeLag = 1

// admitAppend checks that one more block of f fits in the disk budget,
// bumping the quota-rejection telemetry on failure. Called by AppendBlock
// before the store sees the payload; the block counts toward DiskBytes once
// it lands.
func (d *Disk) admitAppend(f *File) error {
	if d.quota == 0 {
		return nil
	}
	used := d.DiskBytes()
	if used+d.blockBytes() <= d.quota {
		return nil
	}
	if d.iom != nil {
		d.iom.quotaRejects.Inc()
	}
	d.log(slog.LevelWarn, "append rejected by disk budget",
		slog.String("file", f.name), slog.Int64("used", used), slog.Int64("budget", d.quota))
	return &ResourceError{
		Resource: "disk", File: f.name,
		Used: used, Requested: d.blockBytes(), Budget: d.quota,
		Err: ErrDiskBudget,
	}
}
