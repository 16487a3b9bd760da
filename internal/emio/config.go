package emio

import (
	"errors"
	"fmt"
)

// Config fixes the parameters of the external-memory machine.
//
// M is the internal memory capacity and B the block size, both in elements.
// The model requires M >= 2B (the machine must at least hold two blocks).
//
// Pipeline configures the physical layer of file-backed disks; it affects
// only physical transfers and wall-clock speed, never the logical I/O
// counters, and is ignored by memory-backed disks.
//
// Checksum and Retry arm the opt-in resilience layer: per-block CRC32C
// verification on every read, and bounded retry of transient physical-I/O
// failures. Both are bit-identical on the logical model — with no faults
// injected, outputs, Stats and trace JSON match a resilience-off run.
//
// Log arms the structured event log (see LogConfig); like the other
// telemetry legs it is strictly observational and changes no outputs.
//
// Workers is the number of goroutines the two sorts may use for their
// in-memory sorting: extsort's run formation (Sort and SortJob) and
// distsort's base cases (DistributionSort). 0 and 1 sort on the calling
// goroutine. Every sort still runs at full M with the same I/O schedule, so
// outputs, logical Stats, peak memory and trace JSON are bit-identical at
// every worker count. Every other algorithm ignores Workers.
type Config struct {
	M int // memory capacity, in elements
	B int // block size, in elements

	Workers int // goroutines for the sorts' in-memory sorting; 0 = the caller's only

	Pipeline Pipeline // physical-I/O backend of file-backed disks

	Checksum bool  // verify per-block CRC32C checksums on every read
	Retry    Retry // bounded retry of transient physical-transfer failures

	// DiskBudget bounds the job's live disk footprint (scratch plus staged
	// inputs and outputs) in bytes; 0 leaves the model's disk unbounded.
	// Appends that would exceed it fail with a typed *ResourceError, after
	// extsort has degraded gracefully (narrower merge fan, consuming reads —
	// more passes, still within the paper's O(n/B·log_{M/B}) bound).
	DiskBudget int64

	Log LogConfig // structured event log (ring + JSON-lines + extra handler)
}

// Pipeline configures the physical layer of a file-backed disk. Every
// file-backed disk runs the I/O engine: block appends are staged into
// batches of queueDepth blocks, each written with one positioned write per
// run of adjacent blocks, and sequential readers trigger coalesced
// read-ahead of up to prefetchDepth contiguous blocks in one positioned
// read. The engine moves only physical transfers: logical I/O accounting,
// fault-hook firing and trace spans happen when the algorithm issues the
// block, so Stats and outputs are bit-identical to the memory backend's.
//
// Enabled is ignored: every file-backed disk runs the engine. The field
// stays only because the benchmark still sets it.
//
// Direct opens the backing file with O_DIRECT (on platforms that support
// it), bypassing the OS page cache so every physical transfer pays real
// device latency — the cost regime the EM model assumes. Without Uring the
// engine's transfers run in place, so the disk's writes and reads do not
// overlap computation.
// Direct I/O constrains physical transfers to 512-byte-aligned offsets,
// lengths and buffers; the store pads partial blocks to honor this, which can
// grow the backing file's byte footprint (never the logical I/O counts).
// Use DirectIOSupported to probe the filesystem first.
//
// Uring routes physical transfers through a Linux io_uring of uringDepth
// entries: each transfer is submitted as an SQE instead of a blocking
// pread/pwrite syscall, with the store's long-lived buffers registered as
// fixed buffers and completions reaped by the goroutine driving the disk
// when it waits on one. The engine's batch writes and read-ahead then stay
// in flight while the algorithm computes. It composes with Direct (an
// O_DIRECT backing driven through the ring is the closest-to-device
// configuration), and like Direct it degrades silently — to the syscall
// paths — where UringSupported reports false. The ring changes only how raw
// transfers reach the device: logical I/O accounting, checksums, retry,
// fault injection and tracing wrap its completions exactly as they wrap
// syscall returns, so outputs, Stats and trace JSON are bit-identical across
// {buffered, direct, uring}.
type Pipeline struct {
	Enabled bool // ignored (see above)
	Direct  bool // open the backing file with O_DIRECT (see above)
	Uring   bool // submit physical transfers through an io_uring (see above)
}

// The I/O engine's depths.
const (
	prefetchDepth = 8  // blocks per sequential read-ahead window
	queueDepth    = 16 // blocks per staged-write batch
	uringDepth    = 64 // io_uring submission-queue entries
)

// depths are the engine depths of one file store. Every exported constructor
// uses engineDepths; the engine's own tests pass shallower ones so a few
// blocks cross batch and window seams.
type depths struct{ prefetch, queue, uring int }

var engineDepths = depths{prefetch: prefetchDepth, queue: queueDepth, uring: uringDepth}

// ErrBadConfig is wrapped by all Config validation errors.
var ErrBadConfig = errors.New("emio: invalid configuration")

// Validate checks the model constraints: B >= 1 and M >= 2B.
func (c Config) Validate() error {
	if c.B < 1 {
		return fmt.Errorf("%w: block size B=%d, need B >= 1", ErrBadConfig, c.B)
	}
	if c.M < 2*c.B {
		return fmt.Errorf("%w: memory M=%d with block size B=%d, need M >= 2B", ErrBadConfig, c.M, c.B)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers %d < 0", ErrBadConfig, c.Workers)
	}
	if c.DiskBudget < 0 {
		return fmt.Errorf("%w: disk budget %d < 0", ErrBadConfig, c.DiskBudget)
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	return c.Log.validate()
}

// Blocks returns the number of blocks needed to store n elements,
// i.e. ceil(n/B). Zero elements need zero blocks.
func (c Config) Blocks(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + int64(c.B) - 1) / int64(c.B)
}

// FanOut returns the largest k such that k block buffers plus slack spare
// elements fit in memory: k = floor((M - spare) / B). It never returns less
// than 1 so callers can always make progress (a degenerate fan-out of 1 only
// slows an algorithm down; it cannot break correctness).
func (c Config) FanOut(spare int) int {
	k := (c.M - spare) / c.B
	if k < 1 {
		k = 1
	}
	return k
}

// String renders the configuration as "M=… B=…".
func (c Config) String() string {
	return fmt.Sprintf("M=%d B=%d", c.M, c.B)
}
