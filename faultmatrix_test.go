package empart

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/emio"
	"repro/internal/workload"
)

// The deterministic fault matrix from the resilience acceptance criteria:
// a seeded transient-fault schedule must (a) complete with identical output
// when bounded retry is enabled, with the retries visible in RetryStats and
// the metrics registry, and (b) fail with a typed *TransientError when it is
// not; and a flipped bit in any stored block must surface as a typed
// *CorruptionError — never as silently wrong output — on the file store,
// with and without the io_uring.

func faultMatrixModes() []struct {
	name string
	pipe Pipeline
} {
	modes := []struct {
		name string
		pipe Pipeline
	}{
		{"sync", Pipeline{}},
		// The -pipeline rows set Pipeline.Enabled, which every file disk
		// ignores (each runs the I/O engine); they check that it changes
		// nothing, and go with the field.
		{"pipeline", Pipeline{Enabled: true}},
	}
	if emio.UringSupported() {
		// With an injector or retry policy armed the ring carries one
		// submission per runPhys attempt, so scripted per-kind fault schedules
		// keep their deterministic ordering; these rows prove the ring
		// composes with the whole resilience layer (and that its teardown
		// after induced failures leaves no goroutine behind, via the
		// RequireNoGoroutineLeaks checks the matrix tests already carry).
		modes = append(modes,
			struct {
				name string
				pipe Pipeline
			}{"uring", Pipeline{Uring: true}},
			struct {
				name string
				pipe Pipeline
			}{"uring-pipeline", Pipeline{Enabled: true, Uring: true}},
		)
	}
	return modes
}

// transientSchedule arms inj with the matrix's fail-once fault points. Op
// indices count from injector attach, per I/O kind, so the schedule is
// meaningful in every mode (each performs well past four physical transfers
// of each kind on this workload).
func transientSchedule(inj *Injector) {
	inj.FailWrite(0, 1)
	inj.FailWrite(3, 1)
	inj.FailRead(0, 1)
	inj.FailRead(2, 1)
}

func sortedBaseline(t *testing.T, elems []Elem) []Elem {
	t.Helper()
	sys, err := New(Config{M: 1 << 10, B: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Sort(sys.Stage(elems))
	if err != nil {
		t.Fatal(err)
	}
	return sys.Read(out)
}

func TestFaultMatrixTransientRecovery(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x5eed)
	want := sortedBaseline(t, elems)

	for _, mode := range faultMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			c := cfg
			c.Pipeline = mode.pipe
			c.Retry = Retry{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "m.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			reg := NewMetricsRegistry()
			sys.SetMetrics(reg)

			f := sys.Stage(elems)
			inj := NewInjector(0x5eed)
			transientSchedule(inj)
			sys.SetInjector(inj)
			out, err := sys.Sort(f)
			if err != nil {
				t.Fatalf("sort under transient schedule with retry: %v", err)
			}
			sys.SetInjector(nil)
			got := sys.Read(out)
			if len(got) != len(want) {
				t.Fatalf("output has %d elements, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output element %d = %v, want %v", i, got[i], want[i])
				}
			}
			rs := sys.RetryStats()
			if rs.Retries != 4 {
				t.Errorf("RetryStats.Retries = %d, want 4 (the full schedule)", rs.Retries)
			}
			if rs.Giveups != 0 {
				t.Errorf("RetryStats.Giveups = %d, want 0", rs.Giveups)
			}
			if got := reg.Snapshot().Counter("empart_io_retries_total"); got != 4 {
				t.Errorf("empart_io_retries_total = %d, want 4", got)
			}
			if st := inj.Stats(); st.Transient != 4 {
				t.Errorf("injector fired %d transient faults, want 4", st.Transient)
			}
		})
	}
}

func TestFaultMatrixTransientWithoutRetryFails(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x5eed)

	for _, mode := range faultMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			base := emio.NumGoroutines()
			c := cfg
			c.Pipeline = mode.pipe
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "m.dat"))
			if err != nil {
				t.Fatal(err)
			}
			f := sys.Stage(elems)
			inj := NewInjector(0x5eed)
			transientSchedule(inj)
			sys.SetInjector(inj)
			out, err := sys.Sort(f)
			if err == nil {
				out.Release()
				// A staged write's failure may still be parked as sticky
				// state; it must surface at Close at the latest.
				err = sys.Close()
			} else {
				sys.Close()
			}
			var te *emio.TransientError
			if !errors.As(err, &te) {
				t.Fatalf("error = %v, want *emio.TransientError", err)
			}
			if !errors.Is(err, emio.ErrInjected) || !errors.Is(err, emio.ErrTransient) {
				t.Errorf("error %v does not wrap both fault marks", err)
			}
			emio.RequireNoGoroutineLeaks(t, base)
		})
	}
}

func TestFaultMatrixCorruptionDetected(t *testing.T) {
	const n = 1 << 11
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0xc0de)
	want := sortedBaseline(t, elems)
	nblocks := n / int(cfg.B)

	for _, mode := range faultMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			// Flip one bit in a sample of blocks spanning the file — first,
			// interior, last — and demand a typed detection every time.
			for _, blk := range []int{0, 1, nblocks / 2, nblocks - 2, nblocks - 1} {
				base := emio.NumGoroutines()
				c := cfg
				c.Pipeline = mode.pipe
				c.Checksum = true
				sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "c.dat"))
				if err != nil {
					t.Fatal(err)
				}
				f := sys.Stage(elems)
				bit := (blk*11 + 5) % (int(cfg.B) * 16 * 8)
				if err := sys.CorruptBlock(f, blk, bit); err != nil {
					t.Fatalf("CorruptBlock(%d, %d): %v", blk, bit, err)
				}
				out, err := sys.Sort(f)
				if err == nil {
					// Detection failed; prove whether the output is silently
					// wrong before reporting.
					got := sys.Read(out)
					wrong := len(got) != len(want)
					for i := 0; !wrong && i < len(want); i++ {
						wrong = got[i] != want[i]
					}
					t.Fatalf("block %d bit %d: sort succeeded despite corruption (output wrong: %v)", blk, bit, wrong)
				}
				var ce *emio.CorruptionError
				if !errors.As(err, &ce) {
					t.Fatalf("block %d bit %d: error = %v, want *emio.CorruptionError", blk, bit, err)
				}
				if ce.Block != blk {
					t.Errorf("CorruptionError names block %d, want %d", ce.Block, blk)
				}
				sys.Close()
				emio.RequireNoGoroutineLeaks(t, base)
			}
		})
	}
}

// TestFaultMatrixShardFault is the workers row of the matrix: with two
// workers sorting each run, a fault injected on the System's disk must
// surface from Sort as the typed chain of the sequential rows — a
// *TransientError carrying ErrInjected — after exactly one fault, and the
// call must join every goroutine it started, so none leaks.
func TestFaultMatrixShardFault(t *testing.T) {
	const n = 1 << 14
	cfg := Config{M: 1 << 13, B: 1 << 5, Workers: 2}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x5a4d)

	for _, mode := range faultMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			for _, kind := range []string{"read", "write"} {
				for _, op := range []int64{0, 300, 600} {
					base := emio.NumGoroutines()
					c := cfg
					c.Pipeline = mode.pipe
					sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "s.dat"))
					if err != nil {
						t.Fatal(err)
					}
					f := sys.Stage(elems)
					inj := NewInjector(0x5a4d)
					if kind == "read" {
						inj.FailRead(op, 1)
					} else {
						inj.FailWrite(op, 1)
					}
					sys.SetInjector(inj)
					out, err := sys.Sort(f)
					if err == nil {
						out.Release()
						t.Fatalf("%s fault at op %d: sort succeeded", kind, op)
					}
					var te *emio.TransientError
					if !errors.As(err, &te) {
						t.Errorf("%s fault at op %d: chain lacks *TransientError: %v", kind, op, err)
					}
					if !errors.Is(err, emio.ErrInjected) {
						t.Errorf("%s fault at op %d: chain lacks ErrInjected: %v", kind, op, err)
					}
					if st := inj.Stats(); st.Transient != 1 {
						t.Errorf("%s fault at op %d: injector fired %d faults, want exactly 1", kind, op, st.Transient)
					}
					sys.Close()
					emio.RequireNoGoroutineLeaks(t, base)
				}
			}
		})
	}
}

// TestFaultMatrixProbabilistic soaks the retry layer under a seeded random
// fault stream dense enough to hit many transfers, proving recovery is not an
// artifact of the scripted schedule. Reproducible: the injector's stream is
// PCG-seeded and the backoff jitter is deterministic.
func TestFaultMatrixProbabilistic(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0xd1ce)
	want := sortedBaseline(t, elems)

	for _, mode := range faultMatrixModes() {
		t.Run(mode.name, func(t *testing.T) {
			c := cfg
			c.Pipeline = mode.pipe
			c.Checksum = true
			c.Retry = Retry{MaxAttempts: 6, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "p.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			f := sys.Stage(elems)
			inj := NewInjector(0xd1ce)
			inj.Probabilistic(0.2, 0, 2) // transient-only: every run must finish
			sys.SetInjector(inj)
			out, err := sys.Sort(f)
			if err != nil {
				t.Fatalf("sort under probabilistic transient faults: %v", err)
			}
			sys.SetInjector(nil)
			got := sys.Read(out)
			if !bytes.Equal(elemsKey(got), elemsKey(want)) {
				t.Fatal("output differs from the fault-free baseline")
			}
			if st := inj.Stats(); st.Transient == 0 {
				t.Error("probabilistic injector never fired; soak is vacuous")
			}
			if rs := sys.RetryStats(); rs.Retries == 0 {
				t.Error("no retries recorded despite injected faults")
			}
		})
	}
}
