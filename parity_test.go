package empart

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// The pipeline parity suite: for every facade driver, the physical layer —
// the file store's I/O engine with its staged writes and read-ahead,
// O_DIRECT and the io_uring — must be invisible to everything but the
// clock. Outputs, Stats, the tracer's span-tree I/O deltas and the leak
// detector must be bit-identical across memory and every file backend.

// parityDriver runs one algorithm and returns a canonical byte description
// of its outputs (elements, sizes, buckets — whatever the driver produces).
type parityDriver struct {
	name string
	run  func(t *testing.T, sys *System, f *File) []byte
}

func elemsKey(elems []Elem) []byte {
	var b bytes.Buffer
	for _, e := range elems {
		fmt.Fprintf(&b, "%d,%d;", e.Key, e.Aux)
	}
	return b.Bytes()
}

func parityDrivers(n int64) []parityDriver {
	readAndRelease := func(t *testing.T, sys *System, out *File, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		res := elemsKey(sys.Read(out))
		out.Release()
		return res
	}
	return []parityDriver{
		{"sort", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.Sort(f)
			return readAndRelease(t, sys, out, err)
		}},
		{"distsort", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.DistributionSort(f)
			return readAndRelease(t, sys, out, err)
		}},
		{"select", func(t *testing.T, sys *System, f *File) []byte {
			e, err := sys.Select(f, n/2)
			if err != nil {
				t.Fatal(err)
			}
			return elemsKey([]Elem{e})
		}},
		{"multiselect", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.MultiSelect(f, []int64{1, n / 3, n / 2, n})
			return readAndRelease(t, sys, out, err)
		}},
		{"multipartition", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.MultiPartition(f, []int64{n / 4, n / 4, n - 2*(n/4)})
			return readAndRelease(t, sys, out, err)
		}},
		{"splitters", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.Splitters(f, Params{K: 8, A: 32, B: n / 2})
			return readAndRelease(t, sys, out, err)
		}},
		{"partition", func(t *testing.T, sys *System, f *File) []byte {
			res, err := sys.Partition(f, Params{K: 8, A: 0, B: n / 4})
			if err != nil {
				t.Fatal(err)
			}
			out := elemsKey(sys.Read(res.Data))
			out = append(out, []byte(fmt.Sprintf("|sizes=%v", res.Sizes))...)
			res.Release()
			return out
		}},
		{"precisepartition", func(t *testing.T, sys *System, f *File) []byte {
			out, err := sys.PrecisePartition(f, n/8)
			return readAndRelease(t, sys, out, err)
		}},
		{"histogram", func(t *testing.T, sys *System, f *File) []byte {
			buckets, err := sys.EquiDepthHistogram(f, 8, 0.5, 2)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(fmt.Sprintf("%v", buckets))
		}},
	}
}

// parityRun is one observation of a driver on one backend configuration.
type parityRun struct {
	output  []byte
	stats   Stats
	peakMem int64
	trace   []byte
}

func runParity(t *testing.T, d parityDriver, mk func(t *testing.T) *System, elems []Elem) parityRun {
	t.Helper()
	sys := mk(t)
	f := sys.Stage(elems)
	sys.ResetStats()
	sys.SetTracer(NewTracer())
	out := d.run(t, sys, f)
	trace, err := sys.Tracer().JSON()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if leaks := sys.LiveScratchFiles(); len(leaks) != 0 {
		t.Fatalf("%s leaked scratch files: %v", d.name, leaks)
	}
	return parityRun{output: out, stats: sys.Stats(), peakMem: sys.PeakMemory(), trace: trace}
}

// parityBackend names one way to build a System for the parity suites.
type parityBackend struct {
	name string
	mk   func(t *testing.T) *System
}

// pipelineParityBackends lists every backend the pipeline parity suite
// compares on machine cfg, the memory baseline first.
func pipelineParityBackends(t *testing.T, cfg Config) []parityBackend {
	backends := []parityBackend{
		{"mem", func(t *testing.T) *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"file", func(t *testing.T) *System {
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "d.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
		{"mem-pipeline-flag", func(t *testing.T) *System {
			// The pipeline knob is documented as a no-op for memory disks;
			// prove it by running with it set.
			c := cfg
			c.Pipeline = Pipeline{Enabled: true}
			sys, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		// The resilience layer (checksums + retry) must also be invisible on
		// the logical model when no faults fire: outputs, Stats and the trace
		// span tree stay bit-identical to the resilience-off mem baseline.
		{"mem-resilient", func(t *testing.T) *System {
			c := cfg
			c.Checksum = true
			c.Retry = Retry{MaxAttempts: 3}
			sys, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"file-resilient", func(t *testing.T) *System {
			c := cfg
			c.Checksum = true
			c.Retry = Retry{MaxAttempts: 3}
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "r.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
	}
	if emio.DirectIOSupported(t.TempDir()) {
		// O_DIRECT pads physical transfers to 512-byte granules; logical
		// behaviour must stay bit-identical.
		backends = append(backends, parityBackend{"file-direct", func(t *testing.T) *System {
			c := cfg
			c.Pipeline = Pipeline{Direct: true}
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "dd.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}})
	}
	if emio.UringSupported() {
		// The io_uring backend swaps blocking pread/pwrite for ring
		// submissions; logical outputs, Stats and traces must not move,
		// on a buffered or an O_DIRECT backing file.
		mkUring := func(p Pipeline) func(t *testing.T) *System {
			return func(t *testing.T) *System {
				c := cfg
				c.Pipeline = p
				sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "u.dat"))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sys.Close() })
				return sys
			}
		}
		backends = append(backends, parityBackend{"file-uring", mkUring(Pipeline{Uring: true})})
		if emio.DirectIOSupported(t.TempDir()) {
			backends = append(backends,
				parityBackend{"file-uring-direct", mkUring(Pipeline{Uring: true, Direct: true})})
		}
	}
	return backends
}

// checkPipelineParity runs d on every backend and compares each run's
// output, Stats and trace with the first backend's.
func checkPipelineParity(t *testing.T, d parityDriver, backends []parityBackend, elems []Elem) {
	t.Helper()
	base := runParity(t, d, backends[0].mk, elems)
	for _, be := range backends[1:] {
		got := runParity(t, d, be.mk, elems)
		if !bytes.Equal(got.output, base.output) {
			t.Errorf("%s: output differs from mem baseline", be.name)
		}
		if got.stats != base.stats {
			t.Errorf("%s: stats %v != baseline %v", be.name, got.stats, base.stats)
		}
		if !bytes.Equal(got.trace, base.trace) {
			t.Errorf("%s: trace span tree differs from baseline", be.name)
		}
	}
}

func TestPipelineParitySuite(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0xa11)
	backends := pipelineParityBackends(t, cfg)
	for _, d := range parityDrivers(n) {
		t.Run(d.name, func(t *testing.T) { checkPipelineParity(t, d, backends, elems) })
	}

	// Under a disk budget the sort merges through consuming readers and
	// narrows its fan-in to the headroom they leave. The input and the
	// formed runs take 1,024 of the 1,177 blocks, which leaves room for
	// the full fan of 26 runs, so every backend merges the 18 runs in one
	// pass.
	t.Run("sort-disk-budget", func(t *testing.T) {
		const n = 1 << 14
		c := cfg
		c.DiskBudget = 1177 * int64(c.B) * 16
		elems := workload.Elems(workload.Uniform, n, c.B, 0xa11)
		sort := parityDrivers(n)[0]
		checkPipelineParity(t, sort, pipelineParityBackends(t, c), elems)
	})
}

// TestPipelineFaultParity proves an injected fault on a file store, whose
// writes the I/O engine stages behind the algorithm, is reported at the same
// logical operation — same error chain, same I/O counters at failure time —
// as on the memory backend, which has no write-behind. (Fault hooks fire at
// enqueue time on the algorithm goroutine, so the engine cannot shift them.)
func TestPipelineFaultParity(t *testing.T) {
	errInjected := errors.New("injected fault")
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0xfa117)

	type observation struct {
		err   error
		stats Stats
	}
	observe := func(t *testing.T, file bool, failAt int64, read bool) observation {
		var sys *System
		var err error
		if file {
			sys, err = NewFileBacked(cfg, filepath.Join(t.TempDir(), "f.dat"))
		} else {
			sys, err = New(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		f := sys.Stage(elems)
		sys.ResetStats()
		count := int64(0)
		hook := func(*emio.File, int) error {
			count++
			if count == failAt+1 {
				return errInjected
			}
			return nil
		}
		if read {
			sys.Ctx().Disk().SetReadFault(hook)
		} else {
			sys.Ctx().Disk().SetWriteFault(hook)
		}
		out, runErr := sys.Sort(f)
		if runErr == nil {
			out.Release()
		}
		return observation{err: runErr, stats: sys.Stats()}
	}

	for _, fault := range []struct {
		name   string
		read   bool
		points []int64
	}{
		{"write", false, []int64{0, 3, 40, 100}},
		{"read", true, []int64{0, 7, 60, 150}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			for _, p := range fault.points {
				mem := observe(t, false, p, fault.read)
				file := observe(t, true, p, fault.read)
				if mem.err == nil || file.err == nil {
					t.Fatalf("fault at %s %d: mem err=%v file err=%v, both must fail", fault.name, p, mem.err, file.err)
				}
				if !errors.Is(mem.err, errInjected) || !errors.Is(file.err, errInjected) {
					t.Fatalf("fault at %s %d: errors do not wrap the injection: mem=%v file=%v", fault.name, p, mem.err, file.err)
				}
				if mem.err.Error() != file.err.Error() {
					t.Errorf("fault at %s %d: error text differs:\n mem:  %v\n file: %v", fault.name, p, mem.err, file.err)
				}
				if mem.stats != file.stats {
					t.Errorf("fault at %s %d: stats at failure differ: mem %v file %v", fault.name, p, mem.stats, file.stats)
				}
			}
		})
	}
}
