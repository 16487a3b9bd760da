package emio

// Cooperative cancellation of a running job.
//
// A Disk carries one cancel cell holding the job's cancellation state. Cancel may be called from any
// goroutine (a signal handler, a context watcher, a server's admission
// layer); the algorithm observes it at the logical I/O boundary: every
// ReadBlock/AppendBlock checks the cell before counting the transfer, and
// the physical retry loop checks it before each attempt so a cancel lands
// inside a backoff storm too. The check is one nil test plus one atomic load,
// so the hot path costs nothing measurable, and a cancelled call returns a
// typed *CancelledError within at most one block-transfer latency — the
// transfer in flight when the flag flips.
//
// Cancellation is a property of the job, not the device: a cancelled disk
// performs no further logical I/O, but teardown (Release, Close, writing out
// the engine's staged blocks) proceeds normally so no scratch space or
// in-flight transfer outlives the job.

import (
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
)

// ErrCancelled marks every failure produced by cooperative cancellation, so
// callers can tell an operator abort from a device fault with errors.Is.
var ErrCancelled = errors.New("emio: job cancelled")

// CancelledError reports that an operation was abandoned because the job was
// cancelled. Cause is whatever the canceller supplied — a context error, a
// received signal, an admission-control decision — and nil for a bare cancel.
type CancelledError struct {
	Cause error
}

func (e *CancelledError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("emio: job cancelled: %v", e.Cause)
	}
	return "emio: job cancelled"
}

// Unwrap exposes both the ErrCancelled sentinel and the cause, so
// errors.Is(err, ErrCancelled) and errors.Is(err, context.Canceled) (when a
// context error is the cause) both hold.
func (e *CancelledError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrCancelled, e.Cause}
	}
	return []error{ErrCancelled}
}

// cancelCell is the cancellation flag of one job: written by Cancel from any
// goroutine, read at every logical transfer and retry attempt.
type cancelCell struct {
	err atomic.Pointer[CancelledError]
}

// Cancel requests cooperative cancellation of the job running on this disk.
// The first call
// wins; later calls are no-ops. Safe from any goroutine, at any time.
func (d *Disk) Cancel(cause error) {
	if d.cancel == nil {
		return
	}
	ce := &CancelledError{Cause: cause}
	if d.cancel.err.CompareAndSwap(nil, ce) {
		d.log(slog.LevelWarn, "job cancelled", slog.Any("cause", cause))
		if d.iom != nil {
			d.iom.cancels.Inc()
		}
	}
}

// Cancelled returns the job's cancellation state: nil while the job is live,
// the *CancelledError recorded by the first Cancel otherwise.
func (d *Disk) Cancelled() error {
	return d.checkCancel()
}

// ClearCancel resets the cancellation flag so the disk can run another job.
// Call it only between jobs, never while algorithm I/O is in flight.
func (d *Disk) ClearCancel() {
	if d.cancel != nil {
		d.cancel.err.Store(nil)
	}
}

// checkCancel is the hot-path test: one nil check plus one atomic load.
func (d *Disk) checkCancel() error {
	if d.cancel == nil {
		return nil
	}
	if ce := d.cancel.err.Load(); ce != nil {
		return ce
	}
	return nil
}
