package empart

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/emio"
	"repro/internal/workload"
)

// The workers parity contract: Config.Workers must be invisible to
// everything but the clock. It only spreads the two sorts' in-memory sorting
// over goroutines, so for every facade algorithm, on every backend and
// machine, outputs, Stats, peak memory, the trace span tree and the leak
// detector must be bit-identical to Workers = 0, including under a
// GOMAXPROCS=1 schedule.

// workerCounts is the workers dimension; the first entry is the reference.
var workerCounts = []int{0, 1, 2, 4}

// workersMachine is one machine the contract runs on, with its input size.
type workersMachine struct {
	name string
	cfg  Config
	n    int64
}

// workersMachines holds a small machine whose runs and base cases all sort
// on one goroutine, and two with M = 2^14, where Sort's runs (16,320
// elements, with a 3,680-element tail run below the cutoff) and
// DistributionSort's in-memory base case (5,120 ≤ M/3 elements) take
// ParallelSort's split.
var workersMachines = []workersMachine{
	{"small", Config{M: 1 << 10, B: 1 << 5}, 1 << 12},
	{"runs", Config{M: 1 << 14, B: 1 << 5}, 20000},
	{"base", Config{M: 1 << 14, B: 1 << 5}, 5120},
}

// workersBackend opens a System for cfg on one physical backend.
type workersBackend struct {
	name string
	mk   func(t *testing.T, cfg Config) *System
}

// workersBackends are the memory store and the file stores: buffered, and
// O_DIRECT through the ring where the host supports it. file-pipeline sets
// Pipeline.Enabled, which every file disk ignores; the cell checks that it
// changes nothing, and goes with the field.
func workersBackends(t *testing.T) []workersBackend {
	file := func(p Pipeline) func(t *testing.T, cfg Config) *System {
		return func(t *testing.T, cfg Config) *System {
			cfg.Pipeline = p
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "w.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}
	}
	out := []workersBackend{
		{"mem", func(t *testing.T, cfg Config) *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"file", file(Pipeline{})},
		{"file-pipeline", file(Pipeline{Enabled: true})},
	}
	if emio.DirectIOSupported(t.TempDir()) {
		out = append(out, workersBackend{"file-direct-uring", file(Pipeline{Direct: true, Uring: true})})
	}
	return out
}

// checkWorkersParity runs d on a fresh System from mk at every worker count
// and fails on any difference from Workers = 0. It returns the Systems it
// opened.
func checkWorkersParity(t *testing.T, d parityDriver, m workersMachine, mk func(t *testing.T, cfg Config) *System) []*System {
	t.Helper()
	elems := workload.Elems(workload.Uniform, int(m.n), m.cfg.B, 0x5e9)
	var systems []*System
	var ref parityRun
	for _, w := range workerCounts {
		cfg := m.cfg
		cfg.Workers = w
		got := runParity(t, d, func(t *testing.T) *System {
			sys := mk(t, cfg)
			systems = append(systems, sys)
			return sys
		}, elems)
		if w == workerCounts[0] {
			ref = got
			continue
		}
		if !bytes.Equal(got.output, ref.output) {
			t.Errorf("workers=%d: output differs from workers=0", w)
		}
		if got.stats != ref.stats {
			t.Errorf("workers=%d: stats %v != workers=0 %v", w, got.stats, ref.stats)
		}
		if got.peakMem != ref.peakMem {
			t.Errorf("workers=%d: peak memory %d != workers=0 %d", w, got.peakMem, ref.peakMem)
		}
		if !bytes.Equal(got.trace, ref.trace) {
			t.Errorf("workers=%d: trace differs from workers=0", w)
		}
	}
	return systems
}

// TestWorkersParityWithSequential holds every facade algorithm to Workers =
// 0 on every backend and machine, so Table 1's bounds and every recorded
// trace hold whatever the worker count.
func TestWorkersParityWithSequential(t *testing.T) {
	backends := workersBackends(t)
	for _, d := range workersDrivers(0) {
		t.Run(d.name, func(t *testing.T) {
			for _, be := range backends {
				for _, m := range workersMachines {
					t.Run(be.name+"/"+m.name, func(t *testing.T) {
						checkWorkersParity(t, driverFor(d.name, m.n), m, be.mk)
					})
				}
			}
		})
	}
}

// workersDrivers are the facade drivers for an input of n elements:
// parityDrivers plus right-grounded splitters, Theorem 5's sublinear case.
func workersDrivers(n int64) []parityDriver {
	return append(parityDrivers(n), parityDriver{"splitters-right", func(t *testing.T, sys *System, f *File) []byte {
		out, err := sys.Splitters(f, Params{K: 16, A: 64, B: n})
		if err != nil {
			t.Fatal(err)
		}
		res := elemsKey(sys.Read(out))
		out.Release()
		return res
	}})
}

// driverFor returns the driver called name for an input of n elements.
func driverFor(name string, n int64) parityDriver {
	for _, d := range workersDrivers(n) {
		if d.name == name {
			return d
		}
	}
	panic(fmt.Sprintf("no parity driver %q", name))
}

// TestWorkersParitySuite runs the sort-shaped drivers on every backend on
// the machine whose runs take the parallel split, and requires every
// goroutine they started, ParallelSort's and the I/O engine's, to be gone
// once the Systems close.
func TestWorkersParitySuite(t *testing.T) {
	m := workersMachines[1]
	for _, be := range workersBackends(t) {
		t.Run(be.name, func(t *testing.T) {
			for _, name := range []string{"sort", "distsort", "multipartition", "splitters", "partition"} {
				t.Run(name, func(t *testing.T) {
					goroutines := emio.NumGoroutines()
					for _, sys := range checkWorkersParity(t, driverFor(name, m.n), m, be.mk) {
						sys.Close()
					}
					emio.RequireNoGoroutineLeaks(t, goroutines)
				})
			}
		})
	}
}

// TestWorkersParityGOMAXPROCS1 pins the Go scheduler to one OS thread and
// re-checks both sorts on the machines where they take the parallel split:
// with no true parallelism the goroutines interleave cooperatively, the
// harshest schedule for an order dependence.
func TestWorkersParityGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := workersBackends(t)[0]
	for _, m := range workersMachines[1:] {
		for _, name := range []string{"sort", "distsort"} {
			t.Run(m.name+"/"+name, func(t *testing.T) {
				checkWorkersParity(t, driverFor(name, m.n), m, mem.mk)
			})
		}
	}
}
