package emio

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/emio/metrics"
)

// The io_uring backend's unit tests. Everything here is skip-gated on
// UringSupported, so the suite degrades to a visible skip (never a silent
// pass) on kernels and platforms without io_uring; the cross-backend output
// and Stats guarantees are proved by the top-level parity suite.

// uringConfigs spans the ring's composition space: bare ring, ring under the
// async pipeline, and ring over O_DIRECT.
func uringConfigs(t *testing.T) []Pipeline {
	t.Helper()
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	ps := []Pipeline{
		{Uring: true},
		{Enabled: true, Uring: true, PrefetchDepth: 4, QueueDepth: 2},
		{Enabled: true, Uring: true, UringDepth: 4},
	}
	if DirectIOSupported(t.TempDir()) {
		ps = append(ps, Pipeline{Enabled: true, Uring: true, Direct: true})
	}
	return ps
}

func TestUringRoundTrip(t *testing.T) {
	for _, p := range uringConfigs(t) {
		for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 4096} {
			base := NumGoroutines()
			d, err := NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "u.dat"), 8, p)
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
			// The completion reaper (and the pipeline workers) must be gone.
			RequireNoGoroutineLeaks(t, base)
		}
	}
}

// TestUringSlotContention hammers a depth-2 ring from many goroutines so
// acquirers routinely commit to a blocking enter(GETEVENTS) while the slot
// they need comes back channel-side through release. This is the liveness
// race the slotWaiters/poke protocol closes: a driver that re-checked the
// free list just before a release would otherwise park in the kernel with no
// completion ever coming. The test completing (under the suite timeout) is
// the assertion; -race additionally checks the registration ordering.
func TestUringSlotContention(t *testing.T) {
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "ring.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	u, err := newUring(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters, sz = 8, 200, 512
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w + 1)}, sz)
			got := make([]byte, sz)
			for i := 0; i < iters; i++ {
				off := int64(w*iters+i) * sz
				if err := u.pwrite(buf, off); err != nil {
					errs <- err
					return
				}
				if err := u.pread(got, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d iter %d: read back wrong data", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := u.close(); err != nil {
		t.Fatal(err)
	}
}

// TestUringStatsMatchSynchronous proves the determinism contract across the
// physical backends: logical Stats must be bit-identical whether transfers go
// through blocking syscalls or the ring, pipelined or not.
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
	sync := run(Pipeline{})
	for _, p := range []Pipeline{
		{Uring: true},
		{Enabled: true, Uring: true},
	} {
		if got := run(p); got != sync {
			t.Errorf("p=%+v: Stats %v != synchronous %v", p, got, sync)
		}
	}
}

// TestUringMetricsHistograms checks the ring records its submission
// telemetry: the SQE-batch and queue-depth histograms must have samples after
// a pipelined run through the ring.
func TestUringMetricsHistograms(t *testing.T) {
	if !UringSupported() {
		t.Skip("io_uring not supported on this kernel/platform")
	}
	d, err := NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "m.dat"), 8,
		Pipeline{Enabled: true, Uring: true, PrefetchDepth: 4, QueueDepth: 4})
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
