package emio

import (
	"runtime"
	"time"
)

// TestingT is the slice of *testing.T the leak detector needs. Declared as a
// local interface so that package emio (linked into every binary) never
// imports the testing package itself.
type TestingT interface {
	Helper()
	Fatalf(format string, args ...any)
}

// RequireNoLeaks fails the test when any scratch file created through
// Ctx.Scratch is still live. Call it after a top-level algorithm has returned
// and the caller has released the algorithm's output files: every internal
// scratch file must be gone by then, so anything left is a leak — a file some
// error path or early return forgot to release, silently inflating the
// simulated disk footprint.
func RequireNoLeaks(t TestingT, c *Ctx) {
	t.Helper()
	leaks := c.Disk().LiveScratchFiles()
	if len(leaks) == 0 {
		return
	}
	show := leaks
	const maxShow = 12
	if len(show) > maxShow {
		show = show[:maxShow]
	}
	t.Fatalf("emio: %d scratch files leaked (first %d shown): %v", len(leaks), len(show), show)
}

// NumGoroutines returns the current goroutine count, for use with
// RequireNoGoroutineLeaks: capture it before creating a pipelined system,
// verify after closing it.
func NumGoroutines() int { return runtime.NumGoroutine() }

// RequireNoGoroutineLeaks fails the test when the goroutine count has not
// returned to the baseline captured with NumGoroutines. The I/O engine's
// transfer goroutines must all have exited once their Disk is
// closed — including after injected failures mid-run, the case this check
// guards. Freshly exited goroutines may need a moment to be reaped, so the
// check polls briefly before failing; on failure it dumps all stacks.
func RequireNoGoroutineLeaks(t TestingT, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("emio: goroutine leak: %d live, baseline %d; stacks:\n%s", n, base, buf)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
