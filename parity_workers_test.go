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

// The workers parity suite: the parallel engine's worker count must be
// invisible to everything but the clock. For every engine-routed driver, on
// every backend, outputs, Stats, the trace span tree and the leak detector
// must be bit-identical across worker counts — including a GOMAXPROCS=1
// schedule, where "parallel" degenerates to cooperative interleaving.
// (Shard count is a function of M and B, so these runs all use the same
// shard layout; the scheduling of shard tasks onto goroutines is the only
// thing that varies.)

// parWorkerCounts is the workers dimension: 1, 2, and a machine-wide count.
func parWorkerCounts() []int {
	p := runtime.NumCPU()
	if p < 3 {
		p = 3 // keep three distinct schedules even on small CI machines
	}
	return []int{1, 2, p}
}

// parDrivers are the facade operations routed through the parallel engine.
func parDrivers(n int64) []parityDriver {
	all := parityDrivers(n)
	routed := map[string]bool{
		"sort": true, "distsort": true, "multipartition": true,
		"splitters": true, "partition": true,
	}
	var out []parityDriver
	for _, d := range all {
		if routed[d.name] {
			out = append(out, d)
		}
	}
	return out
}

func TestWorkersParitySuite(t *testing.T) {
	const n = 1 << 12
	base := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, base.B, 0x9a11)
	backends := []struct {
		name string
		mk   func(t *testing.T, cfg Config) *System
	}{
		{"mem", func(t *testing.T, cfg Config) *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}},
		{"file", func(t *testing.T, cfg Config) *System {
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "w.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
		{"file-pipeline", func(t *testing.T, cfg Config) *System {
			cfg.Pipeline = Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4}
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "wp.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}},
	}
	if emio.DirectIOSupported(t.TempDir()) {
		// The closest-to-device backend: shard transfers are coalesced into
		// padded O_DIRECT runs submitted through the ring (which degrades to
		// pread/pwrite where io_uring is missing).
		backends = append(backends, struct {
			name string
			mk   func(t *testing.T, cfg Config) *System
		}{"file-direct-uring", func(t *testing.T, cfg Config) *System {
			cfg.Pipeline = Pipeline{Enabled: true, PrefetchDepth: 4, QueueDepth: 4, Direct: true, Uring: true}
			sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "wd.dat"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			return sys
		}})
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			for _, d := range parDrivers(n) {
				t.Run(d.name, func(t *testing.T) {
					goroutines := emio.NumGoroutines()
					var systems []*System
					var ref parityRun
					for i, w := range parWorkerCounts() {
						cfg := base
						cfg.Workers = w
						got := runParity(t, d, func(t *testing.T) *System {
							sys := be.mk(t, cfg)
							systems = append(systems, sys)
							return sys
						}, elems)
						if i == 0 {
							ref = got
							continue
						}
						if !bytes.Equal(got.output, ref.output) {
							t.Errorf("workers=%d: output differs from workers=1", w)
						}
						if got.stats != ref.stats {
							t.Errorf("workers=%d: stats %v != workers=1 %v", w, got.stats, ref.stats)
						}
						if !bytes.Equal(got.trace, ref.trace) {
							t.Errorf("workers=%d: trace span tree differs from workers=1", w)
						}
					}
					// Close before the leak check: pipelined backends own
					// worker goroutines that exit on Close. The engine's own
					// workers must already be gone — they join per call.
					for _, sys := range systems {
						sys.Close()
					}
					emio.RequireNoGoroutineLeaks(t, goroutines)
				})
			}
		})
	}
}

// TestWorkersParityGOMAXPROCS1 pins the Go scheduler to one OS thread and
// re-checks sort parity across worker counts: with no true parallelism the
// workers interleave cooperatively, the harshest schedule for accidental
// order dependence in the fold path.
func TestWorkersParityGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 12
	base := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, base.B, 0x50f7)
	d := parDrivers(n)[0] // sort
	var ref parityRun
	for i, w := range parWorkerCounts() {
		cfg := base
		cfg.Workers = w
		got := runParity(t, d, func(t *testing.T) *System {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, elems)
		if i == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(got.output, ref.output) || got.stats != ref.stats || !bytes.Equal(got.trace, ref.trace) {
			t.Errorf("GOMAXPROCS=1 workers=%d: run differs from workers=1", w)
		}
	}
}

// TestWorkersShardMetricsAndReport checks the worker-side observability leg:
// the engine exports per-shard logical I/O through the "shard"-labelled
// counter vectors, and ShardReport carries the per-shard output bytes the
// bench harness turns into its balance line.
func TestWorkersShardMetricsAndReport(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5, Workers: 2}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.EnableMetrics()
	f := sys.Stage(workload.Elems(workload.Uniform, n, cfg.B, 0x3a3d))
	sys.ResetStats()
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()

	rep := sys.ShardReport()
	if rep.Shards < 2 || len(rep.ShardBytes) != rep.Shards {
		t.Fatalf("report %+v: want sharded layout with per-shard bytes", rep)
	}
	var sumBytes int64
	for tID, b := range rep.ShardBytes {
		if b <= 0 {
			t.Errorf("shard %d produced %d bytes; sampled ranges should all be nonempty on this workload", tID, b)
		}
		sumBytes += b
	}
	if sumBytes != n*16 {
		t.Errorf("shard bytes sum to %d, want %d (the whole input)", sumBytes, n*16)
	}

	snap := reg.Snapshot()
	total := sys.Stats()
	var reads, writes int64
	for k := 0; k < rep.Shards; k++ {
		r := snap.Counter(fmt.Sprintf("empart_shard_logical_reads_total{shard=%q}", fmt.Sprint(k)))
		w := snap.Counter(fmt.Sprintf("empart_shard_logical_writes_total{shard=%q}", fmt.Sprint(k)))
		if r <= 0 || w <= 0 {
			t.Errorf("shard %d: exported reads=%d writes=%d, want both positive", k, r, w)
		}
		reads += r
		writes += w
	}
	// Shard I/O folds into the parent's Stats; the parent adds only the
	// boundary-block writes of assembly on top.
	if reads > total.Reads || writes > total.Writes {
		t.Errorf("shard counters (r=%d w=%d) exceed folded totals %+v", reads, writes, total)
	}
	if reads < total.Reads/2 {
		t.Errorf("shard reads %d implausibly low against total %d: fold or export broken", reads, total.Reads)
	}
}

// TestWorkersOutputMatchesSequential proves the engine's sort output is
// byte-identical to the sequential path (the sorted sequence of a multiset
// is unique, so this holds for every input). Stats are NOT compared: the
// parallel plan reads boundary blocks once per adjacent shard and its merge
// schedule differs, so logical costs legitimately differ from sequential —
// the invariant is identical outputs here, identical everything across
// worker counts above.
func TestWorkersOutputMatchesSequential(t *testing.T) {
	const n = 1 << 12
	for _, dist := range []workload.Kind{workload.Uniform, workload.Sorted, workload.Reverse, workload.FewDistinct} {
		t.Run(fmt.Sprint(dist), func(t *testing.T) {
			cfg := Config{M: 1 << 10, B: 1 << 5}
			elems := workload.Elems(dist, n, cfg.B, 0xbeef)
			seq, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 2
			par, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fs, fp := seq.Stage(elems), par.Stage(elems)
			want, err := seq.Sort(fs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Sort(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(elemsKey(seq.Read(want)), elemsKey(par.Read(got))) {
				t.Error("parallel sort output differs from sequential")
			}
			rep := par.ShardReport()
			if rep.Shards < 2 || rep.Sequential {
				t.Errorf("expected sharded execution, got report %+v", rep)
			}
		})
	}
}
