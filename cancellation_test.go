package empart

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/emio"
	"repro/internal/workload"
)

// Cancellation-timing matrix: every algorithm, on every backend, must return
// a typed *CancelledError promptly when its context is cancelled mid-run,
// tear down its scratch, and leak no goroutines.
//
// "Mid-run" is made deterministic with a retry storm: a scripted transient
// read fault with an effectively unbounded repeat count parks the algorithm
// (or its pipeline worker) in the bounded-backoff retry loop at a known
// logical point. The test cancels the context once RetryStats shows the
// storm has started; the retry loop checks the cancel flag before every
// attempt, so the job must unwind within about one backoff period.

func cancelMatrixModes() []struct {
	name   string
	backed bool
	pipe   Pipeline
} {
	modes := []struct {
		name   string
		backed bool
		pipe   Pipeline
	}{
		{"mem", false, Pipeline{}},
		{"file", true, Pipeline{}},
		{"file-pipeline", true, Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4}},
	}
	if emio.UringSupported() {
		modes = append(modes, struct {
			name   string
			backed bool
			pipe   Pipeline
		}{"uring", true, Pipeline{Enabled: true, Uring: true, PrefetchDepth: 4, QueueDepth: 4}})
	}
	return modes
}

type cancelAlgo struct {
	name string
	run  func(ctx context.Context, sys *System, f *File, n int64) error
}

func cancelAlgos() []cancelAlgo {
	return []cancelAlgo{
		{"extsort", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.SortContext(ctx, f)
			return err
		}},
		{"distsort", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.DistributionSortContext(ctx, f)
			return err
		}},
		{"msel", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.MultiSelectContext(ctx, f, []int64{1, n / 2, n})
			return err
		}},
		{"mpart", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.MultiPartitionContext(ctx, f, []int64{n / 4, n / 4, n - 2*(n/4)})
			return err
		}},
		{"approxsplit", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.SplittersContext(ctx, f, Params{K: 16, A: 16, B: n})
			return err
		}},
		{"histogram", func(ctx context.Context, sys *System, f *File, n int64) error {
			_, err := sys.EquiDepthHistogramContext(ctx, f, 8, 0.5, 0.5)
			return err
		}},
	}
}

// runCancelCase drives one (algorithm, backend, workers) cell: park the job
// in a scripted retry storm, cancel its context, and require a prompt typed
// failure with full teardown. With workers the storm hits shard 1 only, so
// the cancel must also stop the workers running the other shards.
func runCancelCase(t *testing.T, a cancelAlgo, backed bool, pipe Pipeline, workers int) {
	t.Helper()
	const n = 1 << 14
	cfg := Config{M: 1 << 10, B: 1 << 5, Workers: workers}
	cfg.Pipeline = pipe
	// An effectively unbounded storm: the job cannot finish on its own, so
	// the only way out of this test is a cancel that actually works.
	cfg.Retry = Retry{MaxAttempts: 1 << 30, BaseBackoff: 100 * time.Microsecond, MaxBackoff: 200 * time.Microsecond}

	base := emio.NumGoroutines()
	var sys *System
	var err error
	if backed {
		sys, err = NewFileBacked(cfg, filepath.Join(t.TempDir(), "c.dat"))
	} else {
		sys, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	f := sys.Stage(workload.Elems(workload.Uniform, n, cfg.B, 0xca9ce1))

	inj := NewInjector(0xca9ce1)
	inj.FailRead(10, 1<<30) // storm at the 11th physical read, post-staging
	if workers > 0 {
		// Shards carry their own injector slots (the retry policy is shared).
		sys.SetShardHook(func(k int, d *Disk) {
			if k == 1 {
				d.SetInjector(inj)
			}
		})
	} else {
		sys.SetInjector(inj)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx, sys, f, n) }()

	// Wait for the storm to start, proving the algorithm is mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for sys.RetryStats().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry storm never started; fault schedule missed the algorithm")
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	cancel()

	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("algorithm did not return within 30s of cancellation")
	}
	latency := time.Since(cancelled)

	if runErr == nil {
		t.Fatal("algorithm succeeded despite cancellation mid-storm")
	}
	var ce *CancelledError
	if !errors.As(runErr, &ce) {
		t.Fatalf("got %T (%v), want *CancelledError", runErr, runErr)
	}
	if !errors.Is(runErr, ErrCancelled) {
		t.Errorf("error does not unwrap to ErrCancelled: %v", runErr)
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Errorf("context cause lost in transit: %v", runErr)
	}
	// The retry loop re-checks the flag each backoff period (<= 200µs), so
	// the unwind is bounded by teardown, not by the storm. A generous bound
	// still catches a cancel that only lands at the next phase boundary.
	if latency > 5*time.Second {
		t.Errorf("cancellation took %v to surface", latency)
	}

	// Teardown: no scratch survives a cancelled job, and closing the system
	// reaps every pipeline goroutine.
	emio.RequireNoLeaks(t, sys.Ctx())
	if err := sys.Close(); err != nil {
		t.Errorf("close after cancel: %v", err)
	}
	emio.RequireNoGoroutineLeaks(t, base)
}

func TestCancellationMatrix(t *testing.T) {
	for _, mode := range cancelMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			for _, a := range cancelAlgos() {
				t.Run(a.name, func(t *testing.T) {
					runCancelCase(t, a, mode.backed, mode.pipe, 0)
				})
			}
		})
	}
}

// TestCancellationWorkers runs the engine-routed cells on two workers: one
// shard's worker is parked in the storm while the other shards stage and
// read ahead through the coalescing shard I/O, and the cancel must unwind
// them all, release every shard file and leave no transfer in flight.
func TestCancellationWorkers(t *testing.T) {
	routed := map[string]bool{"extsort": true, "distsort": true, "mpart": true, "approxsplit": true}
	for _, mode := range cancelMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			for _, a := range cancelAlgos() {
				if !routed[a.name] {
					continue
				}
				t.Run(a.name, func(t *testing.T) {
					runCancelCase(t, a, mode.backed, mode.pipe, 2)
				})
			}
		})
	}
}

// TestCancellationSingleProc repeats one pipelined cell at GOMAXPROCS=1: the
// canceller, the algorithm and the pipeline workers share one P, so any
// busy-wait in the cancel path would livelock here.
func TestCancellationSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	runCancelCase(t, cancelAlgos()[0], true,
		Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4}, 0)
}

// TestBindContextRaceFree exercises the context watcher's lifecycle: binding
// and stopping without a cancel must not leak the watcher goroutine, and a
// pre-cancelled context must cancel the system before any I/O runs.
func TestBindContextLifecycle(t *testing.T) {
	sys, err := New(Config{M: 1 << 10, B: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	base := emio.NumGoroutines()
	for i := 0; i < 100; i++ {
		stop := sys.BindContext(context.Background())
		stop()
	}
	emio.RequireNoGoroutineLeaks(t, base)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := sys.Stage(workload.Elems(workload.Uniform, 1<<10, 1<<5, 1))
	if _, err := sys.SortContext(ctx, f); !errors.Is(err, ErrCancelled) {
		t.Fatalf("sort under a dead context: %v, want ErrCancelled", err)
	}
	sys.ClearCancel()
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatalf("sort after ClearCancel: %v", err)
	}
	out.Release()
	emio.RequireNoLeaks(t, sys.Ctx())
}
