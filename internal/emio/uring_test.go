package emio

import (
	"path/filepath"
	"testing"

	"repro/internal/emio/metrics"
)

// The io_uring backend's unit tests. Everything here is skip-gated on
// UringSupported, so the suite degrades to a visible skip (never a silent
// pass) on kernels and platforms without io_uring; the cross-backend output
// and Stats guarantees are proved by the top-level parity suite.

// uringConfig is a ring configuration with the engine depths to open it at.
type uringConfig struct {
	pipe Pipeline
	dep  depths
}

// uringConfigs spans the ring's composition space: the engine at its own
// depths, at shallow batches and windows, on a four-entry ring, and over
// O_DIRECT.
func uringConfigs(t *testing.T) []uringConfig {
	t.Helper()
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	ps := []uringConfig{
		{Pipeline{Uring: true}, engineDepths},
		{Pipeline{Uring: true}, shallow(4, 2)},
		{Pipeline{Uring: true}, depths{prefetch: prefetchDepth, queue: queueDepth, uring: 4}},
	}
	if DirectIOSupported(t.TempDir()) {
		ps = append(ps, uringConfig{Pipeline{Uring: true, Direct: true}, engineDepths})
	}
	return ps
}

func TestUringRoundTrip(t *testing.T) {
	for _, p := range uringConfigs(t) {
		for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 4096} {
			base := NumGoroutines()
			d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "u.dat"), 8, p.pipe, p.dep, false)
			if err != nil {
				t.Fatal(err)
			}
			if !d.UringActive() {
				t.Fatalf("p=%+v: UringActive() = false despite supported kernel", p)
			}
			ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
			if err != nil {
				t.Fatal(err)
			}
			in := seqElems(n)
			f, err := StoreAll(ctx, "rt", in)
			if err != nil {
				t.Fatalf("n=%d p=%+v: %v", n, p, err)
			}
			got := f.Snapshot()
			if len(got) != n {
				t.Fatalf("n=%d p=%+v: got %d elems", n, p, len(got))
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("n=%d p=%+v: differs at %d: %v vs %v", n, p, i, got[i], in[i])
				}
			}
			// Second sequential pass drives the completion-driven read-ahead.
			r, err := NewReader(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				e, ok := r.Next()
				if !ok {
					break
				}
				if e != in[i] {
					t.Fatalf("n=%d p=%+v: reader differs at %d", n, p, i)
				}
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
			r.Close()
			// Release and rewrite through recycled extents.
			f.Release()
			f2, err := StoreAll(ctx, "rt2", in)
			if err != nil {
				t.Fatal(err)
			}
			got2 := f2.Snapshot()
			for i := range in {
				if got2[i] != in[i] {
					t.Fatalf("n=%d p=%+v: reuse differs at %d", n, p, i)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// The ring is reaped by its owner: no goroutine outlives the disk.
			RequireNoGoroutineLeaks(t, base)
		}
	}
}

// TestUringStatsMatchSynchronous proves the determinism contract across the
// physical backends: logical Stats must be bit-identical whether transfers go
// through blocking syscalls or the ring.
func TestUringStatsMatchSynchronous(t *testing.T) {
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	run := func(p Pipeline) Stats {
		d, err := NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "s.dat"), 8, p)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		ctx, err := NewCtxWithDisk(Config{M: 1 << 12, B: 8}, d)
		if err != nil {
			t.Fatal(err)
		}
		in := seqElems(3000)
		f, err := StoreAll(ctx, "x", in)
		if err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		dup, err := Copy(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := LoadAll(ctx, dup)
		if err != nil {
			t.Fatal(err)
		}
		ctx.FreeElems(buf)
		dup.Release()
		return d.Stats()
	}
	if got, sync := run(Pipeline{Uring: true}), run(Pipeline{}); got != sync {
		t.Errorf("ring Stats %v != syscall %v", got, sync)
	}
}

// TestUringMetricsHistograms checks the ring records its submission
// telemetry: the SQE-batch and queue-depth histograms must have samples after
// a run through the ring.
func TestUringMetricsHistograms(t *testing.T) {
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "m.dat"), 8,
		Pipeline{Uring: true}, shallow(4, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reg := metrics.New()
	d.EnableMetrics(reg)
	ctx, err := NewCtxWithDisk(Config{M: 1 << 13, B: 8}, d)
	if err != nil {
		t.Fatal(err)
	}
	in := seqElems(4096)
	f, err := StoreAll(ctx, "m", in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAll(ctx, f); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"empart_uring_sqe_batch", "empart_uring_queue_depth"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q not registered", name)
		}
		if h.Count == 0 {
			t.Errorf("histogram %q has no samples after a ring-backed run", name)
		}
	}
}
