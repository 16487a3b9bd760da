package emio

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/emio/metrics"
)

// fastRetry is a retry policy with microsecond backoff, so fault tests spend
// their time on assertions rather than sleeping.
func fastRetry(attempts int) Retry {
	return Retry{MaxAttempts: attempts, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
}

// resilienceBackends enumerates the backend matrix every resilience property
// is checked under: memory, and the file store at engine depths and at
// shallow ones (named file-pipeline, after the engine's former opt-in), so a
// few blocks cross batch and window seams.
type backendCase struct {
	name string
	dep  depths // engine depths of a file backend
	mem  bool
}

func resilienceBackends() []backendCase {
	return []backendCase{
		{name: "mem", mem: true},
		{name: "file", dep: engineDepths},
		{name: "file-pipeline", dep: shallow(4, 4)},
	}
}

// newBackendCtx builds a Ctx on the given backend with the given resilience
// config applied; the disk is closed via t.Cleanup (errors ignored — fault
// tests may leave sticky state).
func newBackendCtx(t *testing.T, bc backendCase, cfg Config) *Ctx {
	t.Helper()
	if bc.mem {
		ctx, err := NewCtx(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	d, err := newFileBackedDisk(filepath.Join(t.TempDir(), "resil.dat"), cfg.B, Pipeline{}, bc.dep, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ctx, err := NewCtxWithDisk(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestChecksumRoundTripClean(t *testing.T) {
	// With checksums armed and no corruption, every backend round-trips data
	// unchanged and error-free through both the harness and streaming paths.
	for _, bc := range resilienceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := newBackendCtx(t, bc, Config{M: 64, B: 8, Checksum: true})
			in := seqElems(100) // 12 full blocks + a partial
			staged := BuildFile(ctx.Disk(), "staged", in)
			f, err := Copy(ctx, staged)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			var got []Elem
			for {
				e, ok := r.Next()
				if !ok {
					break
				}
				got = append(got, e)
			}
			if err := r.Err(); err != nil {
				t.Fatalf("read with checksums on: %v", err)
			}
			if len(got) != len(in) {
				t.Fatalf("read %d of %d elements", len(got), len(in))
			}
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("element %d = %v, want %v", i, got[i], in[i])
				}
			}
		})
	}
}

func TestCorruptionDetectedEveryBackend(t *testing.T) {
	// A single flipped bit in any stored block must surface as a typed
	// *CorruptionError naming file, block and offset — never as silently
	// wrong data — on every backend.
	for _, bc := range resilienceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			const blocks, b = 6, 8
			for _, blk := range []int{0, 3, blocks - 1} {
				ctx := newBackendCtx(t, bc, Config{M: 64, B: b, Checksum: true})
				in := seqElems(blocks * b)
				f := BuildFile(ctx.Disk(), "victim", in)
				bit := (blk*7 + 13) % (b * elemBytes * 8)
				if err := ctx.Disk().CorruptBlock(f, blk, bit); err != nil {
					t.Fatalf("CorruptBlock(%d, %d): %v", blk, bit, err)
				}
				buf := make([]Elem, b)
				_, err := f.ReadBlock(blk, buf)
				var ce *CorruptionError
				if !errors.As(err, &ce) {
					t.Fatalf("block %d bit %d: ReadBlock error = %v, want *CorruptionError", blk, bit, err)
				}
				if ce.File != "victim" || ce.Block != blk {
					t.Errorf("CorruptionError names %s block %d, want victim block %d", ce.File, ce.Block, blk)
				}
				if ce.Stored == ce.Computed {
					t.Errorf("CorruptionError sums equal (0x%08x): no mismatch recorded", ce.Stored)
				}
				if ce.Off != f.blockOff(blk) {
					t.Errorf("CorruptionError offset %d, want %d", ce.Off, f.blockOff(blk))
				}
				// Intact blocks still read fine.
				other := (blk + 1) % blocks
				if _, err := f.ReadBlock(other, buf); err != nil {
					t.Errorf("intact block %d after corruption of %d: %v", other, blk, err)
				}
			}
		})
	}
}

func TestCorruptBlockRejectsReclaimedBlock(t *testing.T) {
	// A block ReleasePrefix reclaimed has no storage to flip: CorruptBlock
	// must refuse it with ErrReleased, as a read of it does, on every
	// backend, and the blocks still held must stay intact.
	for _, bc := range resilienceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := newBackendCtx(t, bc, Config{M: 64, B: 8, Checksum: true})
			in := seqElems(64)
			f := BuildFile(ctx.Disk(), "consumed", in)
			f.ReleasePrefix(2)
			for _, blk := range []int{0, 1} {
				if err := ctx.Disk().CorruptBlock(f, blk, 3); !errors.Is(err, ErrReleased) {
					t.Errorf("CorruptBlock of reclaimed block %d = %v, want ErrReleased", blk, err)
				}
			}
			buf := make([]Elem, 8)
			for blk := 2; blk < f.NumBlocks(); blk++ {
				n, err := f.ReadBlock(blk, buf)
				if err != nil {
					t.Fatalf("block %d: %v", blk, err)
				}
				for j, e := range buf[:n] {
					if e != in[blk*8+j] {
						t.Fatalf("block %d elem %d = %v, want %v", blk, j, e, in[blk*8+j])
					}
				}
			}
		})
	}
}

func TestCorruptionWithoutChecksumsGoesUndetected(t *testing.T) {
	// The negative control: with checksums off, the same flip reads back
	// without error (silently wrong) — which is exactly why Checksum exists.
	ctx := newBackendCtx(t, backendCase{mem: true}, Config{M: 64, B: 8})
	in := seqElems(16)
	f := BuildFile(ctx.Disk(), "quiet", in)
	if err := ctx.Disk().CorruptBlock(f, 1, 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]Elem, 8)
	if _, err := f.ReadBlock(1, buf); err != nil {
		t.Fatalf("checksum-off read = %v, want silent success", err)
	}
	if buf[0] == in[8] {
		t.Fatal("corruption did not change the payload; test is vacuous")
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	// A seeded schedule of fail-twice-then-succeed faults completes under a
	// 4-attempt budget on every backend, with the retries visible in
	// RetryStats, and the output intact.
	for _, bc := range resilienceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := newBackendCtx(t, bc, Config{M: 64, B: 8, Retry: fastRetry(4)})
			d := ctx.Disk()
			in := seqElems(64)
			staged := BuildFile(d, "in", in)
			inj := NewInjector(1)
			inj.FailWrite(0, 2)
			inj.FailRead(1, 2)
			d.SetInjector(inj)
			out, err := Copy(ctx, staged)
			if err != nil {
				t.Fatalf("copy under transient faults: %v", err)
			}
			if err := out.Sync(); err != nil {
				t.Fatal(err)
			}
			d.SetInjector(nil) // Snapshot below must not consume schedule slots
			got := out.Snapshot()
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("element %d = %v, want %v", i, got[i], in[i])
				}
			}
			rs := d.RetryStats()
			if rs.Retries != 4 {
				t.Errorf("RetryStats.Retries = %d, want 4 (2 write + 2 read)", rs.Retries)
			}
			if rs.Giveups != 0 {
				t.Errorf("RetryStats.Giveups = %d, want 0", rs.Giveups)
			}
			if rs.BackoffNS <= 0 {
				t.Errorf("RetryStats.BackoffNS = %d, want > 0", rs.BackoffNS)
			}
			if st := inj.Stats(); st.Transient != 4 {
				t.Errorf("injector transient count = %d, want 4", st.Transient)
			}
		})
	}
}

func TestRetryDisabledSurfacesTransientError(t *testing.T) {
	// The same transient schedule with retry disabled must fail with a typed
	// *TransientError (Attempts == 1) wrapping both marks.
	for _, bc := range resilienceBackends() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := newBackendCtx(t, bc, Config{M: 64, B: 8})
			d := ctx.Disk()
			staged := BuildFile(d, "in", seqElems(64))
			inj := NewInjector(1)
			inj.FailWrite(0, 2)
			d.SetInjector(inj)
			_, err := Copy(ctx, staged)
			if err == nil {
				// Staged writes may park the failure as sticky state
				// until the next sync point.
				err = d.Close()
			}
			var te *TransientError
			if !errors.As(err, &te) {
				t.Fatalf("error = %v, want *TransientError", err)
			}
			if te.Attempts != 1 {
				t.Errorf("Attempts = %d, want 1 with retry disabled", te.Attempts)
			}
			if te.Op != "write" {
				t.Errorf("Op = %q, want write", te.Op)
			}
			if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrTransient) {
				t.Errorf("error %v does not wrap ErrInjected and ErrTransient", err)
			}
		})
	}
}

func TestRetryGiveupAfterBudget(t *testing.T) {
	// A fault outlasting the attempt budget surfaces as *TransientError with
	// the full attempt count, and counts as a giveup.
	ctx := newBackendCtx(t, backendCase{name: "file", dep: engineDepths}, Config{M: 64, B: 8, Retry: fastRetry(3)})
	d := ctx.Disk()
	f := BuildFile(d, "in", seqElems(16))
	inj := NewInjector(1)
	inj.FailRead(0, 99)
	d.SetInjector(inj)
	_, err := f.ReadBlock(0, make([]Elem, 8))
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("error = %v, want *TransientError", err)
	}
	if te.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", te.Attempts)
	}
	rs := d.RetryStats()
	if rs.Giveups != 1 || rs.Retries != 2 {
		t.Errorf("RetryStats = %+v, want 2 retries and 1 giveup", rs)
	}
}

func TestPermanentFaultNotRetried(t *testing.T) {
	// A permanent (non-transient) fault must fail fast — no retry attempts —
	// and surface as a *FaultError wrapping ErrInjected.
	ctx := newBackendCtx(t, backendCase{name: "file", dep: engineDepths}, Config{M: 64, B: 8, Retry: fastRetry(5)})
	d := ctx.Disk()
	f := BuildFile(d, "in", seqElems(16))
	inj := NewInjector(1)
	inj.FailRead(0, -1)
	d.SetInjector(inj)
	_, err := f.ReadBlock(0, make([]Elem, 8))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error = %v, want *FaultError", err)
	}
	var te *TransientError
	if errors.As(err, &te) {
		t.Fatalf("permanent fault produced a *TransientError: %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error %v does not wrap ErrInjected", err)
	}
	if rs := d.RetryStats(); rs.Retries != 0 {
		t.Errorf("RetryStats.Retries = %d, want 0 for a permanent fault", rs.Retries)
	}
	if fe.File != "in" {
		t.Errorf("FaultError file = %q, want in", fe.File)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	r := newRetrier(Retry{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42})
	r2 := newRetrier(Retry{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42})
	for attempt := 1; attempt <= 4; attempt++ {
		for _, off := range []int64{0, 4096, 1 << 30} {
			a, b := r.backoffFor(off, attempt), r2.backoffFor(off, attempt)
			if a != b {
				t.Fatalf("backoff not deterministic: %v vs %v at off=%d attempt=%d", a, b, off, attempt)
			}
			base := 100 * time.Microsecond << (attempt - 1)
			if base > time.Millisecond {
				base = time.Millisecond
			}
			if a < base/2 || a >= base+base/2 {
				t.Fatalf("backoff %v outside [%v, %v) at off=%d attempt=%d", a, base/2, base+base/2, off, attempt)
			}
		}
	}
	// A different seed must produce a different jitter stream somewhere.
	r3 := newRetrier(Retry{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Seed: 43})
	same := true
	for attempt := 1; attempt <= 4 && same; attempt++ {
		if r.backoffFor(4096, attempt) != r3.backoffFor(4096, attempt) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical jitter streams")
	}
}

func TestRetryMetricsRecorded(t *testing.T) {
	// Retries, giveups and backoff must land in the metrics registry.
	ctx := newBackendCtx(t, backendCase{name: "file", dep: engineDepths}, Config{M: 64, B: 8, Retry: fastRetry(3)})
	d := ctx.Disk()
	reg := metrics.New()
	d.EnableMetrics(reg)
	f := BuildFile(d, "in", seqElems(16))
	inj := NewInjector(1)
	inj.FailRead(0, 1)  // recovered after one retry
	inj.FailRead(1, 99) // given up
	d.SetInjector(inj)
	buf := make([]Elem, 8)
	if _, err := f.ReadBlock(0, buf); err != nil {
		t.Fatalf("recoverable read: %v", err)
	}
	if _, err := f.ReadBlock(1, buf); err == nil {
		t.Fatal("exhausted read succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("empart_io_retries_total"); got != 3 {
		t.Errorf("empart_io_retries_total = %d, want 3 (1 recovery + 2 burned)", got)
	}
	if got := snap.Counter("empart_io_retry_giveups_total"); got != 1 {
		t.Errorf("empart_io_retry_giveups_total = %d, want 1", got)
	}
}

func TestCorruptionMetricRecorded(t *testing.T) {
	ctx := newBackendCtx(t, backendCase{mem: true}, Config{M: 64, B: 8, Checksum: true})
	d := ctx.Disk()
	reg := metrics.New()
	d.EnableMetrics(reg)
	f := BuildFile(d, "in", seqElems(16))
	if err := d.CorruptBlock(f, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadBlock(0, make([]Elem, 8)); err == nil {
		t.Fatal("corrupted read succeeded")
	}
	if got := reg.Snapshot().Counter("empart_corruption_detected_total"); got != 1 {
		t.Errorf("empart_corruption_detected_total = %d, want 1", got)
	}
}

func TestTraceSpansCarryRetries(t *testing.T) {
	// Retried attempts during a span must appear on the span; clean spans
	// must omit the field from JSON so resilience-on traces stay
	// bit-identical to resilience-off ones.
	ctx := newBackendCtx(t, backendCase{name: "file", dep: engineDepths}, Config{M: 64, B: 8, Retry: fastRetry(4)})
	d := ctx.Disk()
	f := BuildFile(d, "in", seqElems(16))
	tr := NewTracer()
	ctx.SetTracer(tr)

	sp := ctx.StartSpan("clean-read")
	buf := make([]Elem, 8)
	if _, err := f.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	sp.End()

	inj := NewInjector(1)
	inj.FailRead(0, 2) // the next physical read after the injector attaches
	d.SetInjector(inj)
	sp = ctx.StartSpan("faulty-read")
	if _, err := f.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	sp.End()

	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d root spans, want 2", len(roots))
	}
	if roots[0].Retries != 0 {
		t.Errorf("clean span Retries = %d, want 0", roots[0].Retries)
	}
	if roots[1].Retries != 2 {
		t.Errorf("faulty span Retries = %d, want 2", roots[1].Retries)
	}
	js, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(js), `"retries"`); n != 1 {
		t.Errorf("trace JSON mentions retries %d times, want 1 (omitted on the clean span):\n%s", n, js)
	}
}

func TestStickyErrorReportedOnce(t *testing.T) {
	// Regression test for double-reporting: an asynchronous write failure
	// surfaced once (at Sync, Writer.Close or the next op) must not come
	// back as a second distinct error at Disk.Close — but a failure nothing
	// delivered must still reach Disk.Close.
	newPipeCtx := func(t *testing.T) (*Ctx, *Disk, *Injector) {
		d, err := newFileBackedDisk(
			filepath.Join(t.TempDir(), "sticky.dat"), 8, Pipeline{}, shallow(prefetchDepth, 2), false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewCtxWithDisk(Config{M: 64, B: 8}, d)
		if err != nil {
			t.Fatal(err)
		}
		inj := NewInjector(1)
		inj.FailWrite(0, -1)
		d.SetInjector(inj)
		return ctx, d, inj
	}

	t.Run("delivered-then-close-nil", func(t *testing.T) {
		ctx, d, _ := newPipeCtx(t)
		f := ctx.Scratch("w")
		w, err := NewWriter(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range seqElems(32) {
			w.Append(e)
		}
		if err := w.Close(); !errors.Is(err, ErrInjected) {
			t.Fatalf("Writer.Close = %v, want the injected fault", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Disk.Close after delivery = %v, want nil", err)
		}
	})

	t.Run("undelivered-surfaces-at-close", func(t *testing.T) {
		ctx, d, _ := newPipeCtx(t)
		f := ctx.Scratch("w")
		if err := f.AppendBlock(seqElems(8)); err != nil {
			t.Fatal(err)
		}
		if err := f.AppendBlock(seqElems(8)); err != nil {
			t.Fatal(err)
		}
		// No sync, no read: the failure has not been delivered anywhere.
		if err := d.Close(); !errors.Is(err, ErrInjected) {
			t.Fatalf("Disk.Close = %v, want the undelivered injected fault", err)
		}
	})
}

func TestResilienceUnderDirectIO(t *testing.T) {
	// The resilience layer must compose with O_DIRECT: the retry wrapper and
	// checksum verification sit above the 512-byte padding, so injected
	// transient faults recover and bit-flips are detected the same way.
	dir := t.TempDir()
	if !DirectIOSupported(dir) {
		t.Skip("O_DIRECT unsupported on this filesystem")
	}
	for _, tc := range []struct {
		name string
		pipe Pipeline
		dep  depths
	}{
		{"sync", Pipeline{Direct: true}, engineDepths},
		{"pipeline", Pipeline{Direct: true}, shallow(4, 4)},
	} {
		name := tc.name
		t.Run(name, func(t *testing.T) {
			d, err := newFileBackedDisk(filepath.Join(dir, name+".dat"), 8, tc.pipe, tc.dep, false)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			ctx, err := NewCtxWithDisk(Config{M: 64, B: 8, Checksum: true, Retry: fastRetry(4)}, d)
			if err != nil {
				t.Fatal(err)
			}
			in := seqElems(64)
			staged := BuildFile(d, "in", in)
			inj := NewInjector(3)
			inj.FailRead(0, 2)
			inj.FailWrite(0, 2)
			d.SetInjector(inj)
			out, err := Copy(ctx, staged)
			if err != nil {
				t.Fatalf("copy under faults with O_DIRECT: %v", err)
			}
			if err := out.Sync(); err != nil {
				t.Fatal(err)
			}
			d.SetInjector(nil)
			got := out.Snapshot()
			for i := range in {
				if got[i] != in[i] {
					t.Fatalf("element %d = %v, want %v", i, got[i], in[i])
				}
			}
			if rs := d.RetryStats(); rs.Retries != 4 {
				t.Errorf("RetryStats.Retries = %d, want 4", rs.Retries)
			}
			if err := d.CorruptBlock(out, 3, 21); err != nil {
				t.Fatal(err)
			}
			_, err = out.ReadBlock(3, make([]Elem, 8))
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("ReadBlock after bit flip = %v, want *CorruptionError", err)
			}
		})
	}
}

func TestPipelineFaultGoroutineCleanup(t *testing.T) {
	// No goroutine may outlive a run aborted by injected faults, whichever
	// side (read or write) failed.
	for _, kind := range []string{"write", "read"} {
		t.Run(kind, func(t *testing.T) {
			base := NumGoroutines()
			d, err := newFileBackedDisk(
				filepath.Join(t.TempDir(), "leak.dat"), 8, Pipeline{}, shallow(4, 2), false)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := NewCtxWithDisk(Config{M: 64, B: 8, Retry: fastRetry(2)}, d)
			if err != nil {
				t.Fatal(err)
			}
			staged := BuildFile(d, "in", seqElems(128))
			inj := NewInjector(7)
			if kind == "write" {
				inj.FailWrite(1, -1)
			} else {
				inj.FailRead(0, -1)
			}
			d.SetInjector(inj)
			if _, err := Copy(ctx, staged); err == nil {
				d.SetInjector(nil)
				if cerr := d.Close(); cerr == nil {
					t.Fatal("no error surfaced despite a permanent injected fault")
				}
			} else {
				d.Close()
			}
			RequireNoGoroutineLeaks(t, base)
		})
	}
}
