package emio

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Accountant meters an algorithm's internal-memory consumption against the
// model's budget of M elements. Every in-memory buffer an algorithm holds is
// allocated through the owning Ctx, which charges it here; exceeding the
// budget is an error, so "this algorithm runs in memory M" is enforced at
// test time instead of being asserted in a comment.
//
// Charges are in elements (two words). Integer side arrays are charged at two
// int64s per element via Ctx.AllocInts.
//
// The meter is lock-free and safe for concurrent use: Charge reserves with a
// compare-and-swap against the limit, Credit is an atomic add, and the peak
// is maintained by a CAS-max loop.
type Accountant struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// ErrMemoryBudget is wrapped by allocation failures.
var ErrMemoryBudget = errors.New("emio: memory budget exceeded")

// NewAccountant creates an accountant with the given budget in elements.
// A non-positive limit means unlimited (metering without enforcement).
func NewAccountant(limit int64) *Accountant {
	return &Accountant{limit: limit}
}

// Charge records an allocation of n elements. It fails, leaving the meter
// unchanged, if the budget would be exceeded.
func (a *Accountant) Charge(n int64) error {
	if n < 0 {
		panic(fmt.Sprintf("emio: negative memory charge %d", n))
	}
	for {
		cur := a.used.Load()
		next := cur + n
		if a.limit > 0 && next > a.limit {
			return fmt.Errorf("%w: in use %d + requested %d > M=%d", ErrMemoryBudget, cur, n, a.limit)
		}
		if a.used.CompareAndSwap(cur, next) {
			a.RaisePeak(next)
			return nil
		}
	}
}

// Credit records the release of n elements.
func (a *Accountant) Credit(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("emio: negative memory credit %d", n))
	}
	if v := a.used.Add(-n); v < 0 {
		panic(fmt.Sprintf("emio: memory meter underflow (%d)", v))
	}
}

// Used returns the elements currently charged.
func (a *Accountant) Used() int64 { return a.used.Load() }

// Peak returns the high-water mark of the meter.
func (a *Accountant) Peak() int64 { return a.peak.Load() }

// Limit returns the budget (0 or negative means unlimited).
func (a *Accountant) Limit() int64 { return a.limit }

// RaisePeak lifts the high-water mark to at least v (CAS-max; never lowers
// it). The tracer uses it to restore an enclosing span's scoped peak.
func (a *Accountant) RaisePeak(v int64) {
	for {
		p := a.peak.Load()
		if v <= p || a.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// ResetPeak lowers the high-water mark to the current usage, so a caller can
// measure the peak of one phase in isolation.
func (a *Accountant) ResetPeak() { a.peak.Store(a.used.Load()) }
