package empart

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// The metrics parity suite: live telemetry must be strictly observational.
// For every facade driver and every backend configuration, a run with a
// metrics registry attached must produce byte-equal outputs, equal logical
// Stats, and bit-identical trace JSON compared to a metrics-off run. The
// suite runs under -race (metrics recording crosses the pipeline's worker
// and prefetch goroutines) and again pinned to GOMAXPROCS=1.

func metricsParityBackends(cfg Config) []parityBackend {
	return []parityBackend{
		{"mem", func(t *testing.T) *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"file", func(t *testing.T) *System {
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "m.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
		{"file-pipeline", func(t *testing.T) *System {
			c := cfg
			c.Pipeline = Pipeline{Enabled: true}
			sys, err := NewFileBacked(c, filepath.Join(t.TempDir(), "mp.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
	}
}

// runMetricsParity is runParity plus an optional metrics registry attached
// before the algorithm runs.
func runMetricsParity(t *testing.T, d parityDriver, mk func(t *testing.T) *System, elems []Elem, withMetrics bool) (parityRun, *System) {
	t.Helper()
	sys := mk(t)
	f := sys.Stage(elems)
	sys.ResetStats()
	sys.SetTracer(NewTracer())
	if withMetrics {
		sys.SetMetrics(NewMetricsRegistry())
	}
	out := d.run(t, sys, f)
	trace, err := sys.Tracer().JSON()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if leaks := sys.LiveScratchFiles(); len(leaks) != 0 {
		t.Fatalf("%s leaked scratch files: %v", d.name, leaks)
	}
	return parityRun{output: out, stats: sys.Stats(), trace: trace}, sys
}

func metricsParitySuite(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x3e7)
	for _, d := range parityDrivers(n) {
		t.Run(d.name, func(t *testing.T) {
			for _, be := range metricsParityBackends(cfg) {
				off, _ := runMetricsParity(t, d, be.mk, elems, false)
				on, sys := runMetricsParity(t, d, be.mk, elems, true)
				if !bytes.Equal(on.output, off.output) {
					t.Errorf("%s: output differs with metrics on", be.name)
				}
				if on.stats != off.stats {
					t.Errorf("%s: stats with metrics on %v != off %v", be.name, on.stats, off.stats)
				}
				if !bytes.Equal(on.trace, off.trace) {
					t.Errorf("%s: trace JSON differs with metrics on", be.name)
				}
				// The run must actually have been observed: logical counters
				// mirror the model's Stats exactly.
				snap := sys.MetricsRegistry().Snapshot()
				if got := snap.Counter("empart_logical_reads_total"); got != on.stats.Reads {
					t.Errorf("%s: logical reads metric = %d, Stats.Reads = %d", be.name, got, on.stats.Reads)
				}
				if got := snap.Counter("empart_logical_writes_total"); got != on.stats.Writes {
					t.Errorf("%s: logical writes metric = %d, Stats.Writes = %d", be.name, got, on.stats.Writes)
				}
			}
		})
	}
}

func TestMetricsParitySuite(t *testing.T) { metricsParitySuite(t) }

func TestMetricsParitySuiteSingleProc(t *testing.T) {
	// GOMAXPROCS=1 forces the tightest interleaving of the algorithm
	// goroutine with the pipeline worker and prefetch goroutines; parity must
	// hold there too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	metricsParitySuite(t)
}
