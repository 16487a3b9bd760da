package emio

import (
	"fmt"
	"math/rand/v2"
)

// Ctx bundles everything an EM algorithm needs: the machine configuration
// (M, B), the disk, the memory accountant, a deterministic random source for
// the randomized subroutines, and a scratch-file factory.
type Ctx struct {
	cfg    Config
	disk   *Disk
	mem    *Accountant
	rng    *rand.Rand
	tracer *Tracer // nil when tracing is disabled (the fast path)
	open   *Span   // innermost open span; its parent links are the span stack

	scratchSeq int64
	blockBufs  [][]Elem // closed Readers' and Writers' block buffers, for reuse
}

// NewCtx creates a context with a fresh disk and an armed memory accountant.
// The random source is seeded deterministically; use SetSeed to vary it.
func NewCtx(cfg Config) (*Ctx, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewCtxWithDisk(cfg, NewDisk(cfg.B))
}

// applyResilience arms the disk's opt-in resilience features named by the
// configuration. Additive only: a Config that leaves them off never clears
// features configured directly on an existing disk.
func applyResilience(d *Disk, cfg Config) {
	if cfg.Checksum {
		d.EnableChecksums()
	}
	if cfg.Retry.Enabled() {
		d.SetRetry(cfg.Retry)
	}
	if cfg.DiskBudget > 0 {
		d.SetDiskBudget(cfg.DiskBudget)
	}
}

// NewCtxWithDisk creates a context over an existing disk (for example a
// file-backed one). The disk's block size must match cfg.B.
func NewCtxWithDisk(cfg Config, d *Disk) (*Ctx, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d.BlockSize() != cfg.B {
		return nil, fmt.Errorf("%w: disk block size %d != B=%d", ErrBadConfig, d.BlockSize(), cfg.B)
	}
	applyResilience(d, cfg)
	if err := applyLog(d, cfg); err != nil {
		return nil, err
	}
	return &Ctx{
		cfg:  cfg,
		disk: d,
		mem:  NewAccountant(int64(cfg.M)),
		rng:  rand.New(rand.NewPCG(0x7a1e5, 0x9e3779b9)),
	}, nil
}

// NewUnmeteredCtx creates a context whose accountant meters but never
// rejects allocations. Useful for harness code and for measuring the peak
// memory an algorithm would need.
func NewUnmeteredCtx(cfg Config) (*Ctx, error) {
	c, err := NewCtx(cfg)
	if err != nil {
		return nil, err
	}
	c.mem = NewAccountant(0)
	return c, nil
}

// M returns the memory capacity in elements.
func (c *Ctx) M() int { return c.cfg.M }

// B returns the block size in elements.
func (c *Ctx) B() int { return c.cfg.B }

// Config returns the machine configuration.
func (c *Ctx) Config() Config { return c.cfg }

// Disk returns the block device.
func (c *Ctx) Disk() *Disk { return c.disk }

// Mem returns the memory accountant.
func (c *Ctx) Mem() *Accountant { return c.mem }

// Rng returns the context's deterministic random source.
func (c *Ctx) Rng() *rand.Rand { return c.rng }

// Err returns the job's cancellation state — nil while live, the
// *CancelledError once Disk.Cancel has been called. Algorithms with long
// compute stretches between I/Os (an in-memory sort of an M-element run)
// poll it so a cancel still lands promptly; pure I/O loops need no explicit
// checks, since every block transfer tests the same flag.
func (c *Ctx) Err() error { return c.disk.Cancelled() }

// SetSeed reseeds the context's random source.
func (c *Ctx) SetSeed(s1, s2 uint64) { c.rng = rand.New(rand.NewPCG(s1, s2)) }

// Scratch creates an empty scratch file tagged for diagnostics. Scratch
// files are tracked by the disk's live-file registry until released, which is
// what the leak detector (Disk.LiveScratchFiles, RequireNoLeaks) and the
// tracer's file columns observe.
func (c *Ctx) Scratch(tag string) *File {
	c.scratchSeq++
	f := c.disk.NewFile(fmt.Sprintf("scratch-%s-%d", tag, c.scratchSeq))
	c.disk.markScratch(f)
	return f
}

// AllocElems allocates an in-memory element buffer of length n, charged
// against the memory budget.
func (c *Ctx) AllocElems(n int) ([]Elem, error) {
	if err := c.mem.Charge(int64(n)); err != nil {
		return nil, err
	}
	return make([]Elem, n), nil
}

// FreeElems releases a buffer obtained from AllocElems. The slice must be
// passed back with its original length.
func (c *Ctx) FreeElems(s []Elem) {
	c.mem.Credit(int64(len(s)))
}

// AllocInts allocates an in-memory int64 buffer of length n, charged at two
// ints per element (an element is two words).
func (c *Ctx) AllocInts(n int) ([]int64, error) {
	if err := c.mem.Charge(intCharge(n)); err != nil {
		return nil, err
	}
	return make([]int64, n), nil
}

// FreeInts releases a buffer obtained from AllocInts, passed back with its
// original length.
func (c *Ctx) FreeInts(s []int64) {
	c.mem.Credit(intCharge(len(s)))
}

func intCharge(n int) int64 { return int64((n + 1) / 2) }

// takeBlockBuf charges one block buffer to the memory budget, exactly as
// AllocElems(B) does, and hands out a buffer a closed Reader or Writer
// returned, allocating only when there is none. A distribution pass opens
// and closes Θ(M/B) streams per level, and a fresh zeroed B-element buffer
// for each was most of the allocation of a partitioning call. Stream buffers
// need no zeroing: a Reader only exposes elements a block read filled in,
// and a Writer only writes elements it appended. A Ctx serves one goroutine,
// so the free list takes no lock; it never holds more buffers than were open
// at once.
func (c *Ctx) takeBlockBuf() ([]Elem, error) {
	if err := c.mem.Charge(int64(c.cfg.B)); err != nil {
		return nil, err
	}
	k := len(c.blockBufs)
	if k == 0 {
		return make([]Elem, c.cfg.B), nil
	}
	buf := c.blockBufs[k-1]
	c.blockBufs[k-1] = nil
	c.blockBufs = c.blockBufs[:k-1]
	return buf, nil
}

// putBlockBuf credits a buffer from takeBlockBuf back to the budget and keeps
// it for the next stream.
func (c *Ctx) putBlockBuf(buf []Elem) {
	c.mem.Credit(int64(len(buf)))
	c.blockBufs = append(c.blockBufs, buf)
}
