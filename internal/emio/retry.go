package emio

// Bounded retry of transient physical-I/O failures. The policy lives in
// Config.Retry and applies to every positioned ReadAt/WriteAt, on the
// goroutine driving the disk: with a retry policy armed the I/O engine runs
// its batch writes and read-ahead in place rather than on the io_uring.
// Retry never changes logical accounting: a retried transfer is still one
// logical I/O, one physical op in PhysStats, and the extra attempts are
// visible only in RetryStats, the metrics registry and trace spans.
//
// Backoff is exponential with deterministic jitter: the sleep before attempt
// k is (base << (k-1)) scaled into [0.5x, 1.5x) by a splitmix64 hash of
// (seed, offset, k). No shared random state, so disks retrying side by side
// never contend and a given (seed, offset, attempt) always backs off the
// same amount.

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/emio/metrics"
)

// Retry configures bounded retry of transient physical-transfer failures.
// The zero value disables retry (every transfer gets exactly one attempt);
// transient failures then still surface as typed *TransientError.
type Retry struct {
	MaxAttempts int           // total attempts per transfer; <= 1 disables retry
	BaseBackoff time.Duration // sleep before the 2nd attempt, doubling per attempt; 0 means DefaultBaseBackoff
	MaxBackoff  time.Duration // backoff ceiling; 0 means DefaultMaxBackoff
	Seed        uint64        // jitter seed; 0 means DefaultRetrySeed
}

// Default retry knobs, used when a field is left at zero.
const (
	DefaultBaseBackoff = 50 * time.Microsecond
	DefaultMaxBackoff  = 5 * time.Millisecond
	// DefaultRetrySeed matches the Ctx's deterministic PCG seed, so an
	// unconfigured jitter stream is reproducible like every other random
	// draw in the model.
	DefaultRetrySeed = 0x7a1e5
)

// Enabled reports whether the policy grants more than one attempt.
func (r Retry) Enabled() bool { return r.MaxAttempts > 1 }

// withDefaults fills zero knobs with the package defaults.
func (r Retry) withDefaults() Retry {
	if r.BaseBackoff == 0 {
		r.BaseBackoff = DefaultBaseBackoff
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = DefaultMaxBackoff
	}
	if r.Seed == 0 {
		r.Seed = DefaultRetrySeed
	}
	return r
}

// validate rejects negative knobs.
func (r Retry) validate() error {
	if r.MaxAttempts < 0 {
		return fmt.Errorf("%w: retry attempts %d < 0", ErrBadConfig, r.MaxAttempts)
	}
	if r.BaseBackoff < 0 || r.MaxBackoff < 0 {
		return fmt.Errorf("%w: negative retry backoff (base %v, max %v)", ErrBadConfig, r.BaseBackoff, r.MaxBackoff)
	}
	return nil
}

// RetryStats is a snapshot of the retry layer's counters.
type RetryStats struct {
	Retries   int64 // failed attempts that were retried
	Giveups   int64 // transfers abandoned after exhausting the attempt budget
	BackoffNS int64 // total backoff slept, in nanoseconds
}

// retrier is the runtime form of a Retry policy: the normalized knobs plus
// counters bumped from whichever goroutine performs the transfer.
type retrier struct {
	pol       Retry
	retries   atomic.Int64
	giveups   atomic.Int64
	backoffNS atomic.Int64

	// m holds the registry instruments, nil until metrics are enabled. An
	// atomic pointer because EnableMetrics may store it from a goroutine
	// other than the one retrying.
	m atomic.Pointer[retryMetrics]
}

func newRetrier(pol Retry) *retrier {
	return &retrier{pol: pol.withDefaults()}
}

func (r *retrier) stats() RetryStats {
	return RetryStats{
		Retries:   r.retries.Load(),
		Giveups:   r.giveups.Load(),
		BackoffNS: r.backoffNS.Load(),
	}
}

// retryMetrics are the registry instruments of the retry layer. Handles are
// safe from any goroutine, so the retry loop records into them directly.
type retryMetrics struct {
	retries   *metrics.CounterHandle
	giveups   *metrics.CounterHandle
	backoffNS *metrics.HistogramHandle
}

func newRetryMetrics(reg *metrics.Registry) *retryMetrics {
	return &retryMetrics{
		retries: reg.Counter("empart_io_retries_total",
			"transient physical-transfer failures that were retried").Handle(),
		giveups: reg.Counter("empart_io_retry_giveups_total",
			"physical transfers abandoned after exhausting the retry budget").Handle(),
		backoffNS: reg.Histogram("empart_io_retry_backoff_ns",
			"backoff slept before one retry attempt", "ns").Handle(),
	}
}

// splitmix64 is the standard 64-bit finalizing mixer, used to derive
// independent deterministic jitter from (seed, offset, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffFor returns the jittered sleep before attempt+1, deterministic in
// (policy seed, transfer offset, attempt index).
func (r *retrier) backoffFor(off int64, attempt int) time.Duration {
	d := r.pol.BaseBackoff
	for i := 1; i < attempt && d < r.pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	h := splitmix64(r.pol.Seed ^ uint64(off)*0x9e3779b97f4a7c15 ^ uint64(attempt))
	frac := float64(h>>11) / (1 << 53) // uniform in [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}

// ioOp distinguishes physical reads from writes in the retry and
// fault-injection layers.
type ioOp uint8

const (
	opRead ioOp = iota
	opWrite
)

func (op ioOp) String() string {
	if op == opRead {
		return "read"
	}
	return "write"
}

// runPhys executes one physical transfer attempt function under the disk's
// fault injector and retry policy. The injector (when armed) sees the op
// exactly once — retries of the transfer replay the same scheduled fault
// episode rather than advancing the schedule. Transient failures are retried
// up to the policy's budget with jittered backoff; a transfer that stays
// transient to the end is wrapped in *TransientError, any other failure is
// returned as-is for the caller to attribute. Safe on a nil Disk (plain
// single attempt).
func (d *Disk) runPhys(op ioOp, fname string, off int64, fn func() error) error {
	var pf *plannedFault
	var r *retrier
	if d != nil {
		if inj := d.inj.Load(); inj != nil {
			pf = inj.begin(op)
		}
		r = d.retry
	}
	maxAttempts := 1
	if r != nil && r.pol.MaxAttempts > 1 {
		maxAttempts = r.pol.MaxAttempts
	}
	for attempt := 1; ; attempt++ {
		// Cancellation bounds the retry loop: a cancel flag flipped during a
		// backoff storm aborts before the next attempt, on whichever
		// goroutine runs the transfer.
		if d != nil {
			if cerr := d.checkCancel(); cerr != nil {
				return cerr
			}
		}
		err := pf.next()
		if err == nil {
			err = fn()
		}
		if err == nil || !isTransient(err) {
			return err
		}
		if attempt >= maxAttempts {
			if r != nil {
				r.giveups.Add(1)
				if m := r.m.Load(); m != nil {
					m.giveups.Inc()
				}
			}
			if d != nil {
				d.log(slog.LevelError, "transfer abandoned after retries",
					slog.String("op", op.String()), slog.String("file", fname),
					slog.Int64("off", off), slog.Int("attempts", attempt))
			}
			return &TransientError{Op: op.String(), File: fname, Offset: off, Attempts: attempt, Err: err}
		}
		sleep := r.backoffFor(off, attempt)
		d.log(slog.LevelWarn, "transient failure, retrying",
			slog.String("op", op.String()), slog.String("file", fname),
			slog.Int64("off", off), slog.Int("attempt", attempt),
			slog.Duration("backoff", sleep))
		time.Sleep(sleep)
		r.retries.Add(1)
		r.backoffNS.Add(int64(sleep))
		if m := r.m.Load(); m != nil {
			m.retries.Inc()
			m.backoffNS.ObserveEx(int64(sleep), d.exemplarSeq())
		}
	}
}
