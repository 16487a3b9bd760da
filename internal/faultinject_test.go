// Package internal_test sweeps injected disk faults through every composite
// algorithm: for a selection of fault points across the algorithm's I/O
// trace, the corresponding read or write fails, and the algorithm must
// return an error (never panic, never report success) and release every
// charged byte of memory. This exercises the error paths that normal runs
// never touch.
package internal_test

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/emio"
	"repro/internal/emsel"
	"repro/internal/extsort"
	"repro/internal/histogram"
	"repro/internal/mpart"
	"repro/internal/msel"
	"repro/internal/workload"
)

var errInjected = errors.New("injected fault")

// backend constructs a Ctx on one storage backend. The fault sweep runs under
// each: the file store's error paths (sticky error delivery, read-ahead
// abort) are disjoint from the memory backend's, which is the reference.
// close must be called before the goroutine-leak check.
type backend struct {
	name string
	mk   func(t *testing.T) (ctx *emio.Ctx, close func() error)
}

func backendMatrix() []backend {
	cfg := emio.Config{M: 4096, B: 32}
	return []backend{
		{"mem", func(t *testing.T) (*emio.Ctx, func() error) {
			ctx, err := emio.NewCtx(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ctx, func() error { return nil }
		}},
		{"file", func(t *testing.T) (*emio.Ctx, func() error) {
			d, err := emio.NewFileBackedDisk(filepath.Join(t.TempDir(), "f.dat"), cfg.B)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := emio.NewCtxWithDisk(cfg, d)
			if err != nil {
				t.Fatal(err)
			}
			return ctx, d.Close
		}},
		// Pipeline.Enabled is ignored (every file disk runs the I/O engine);
		// this cell checks that it changes nothing, and goes with the field.
		{"file-pipeline", func(t *testing.T) (*emio.Ctx, func() error) {
			d, err := emio.NewFileBackedDiskPipeline(filepath.Join(t.TempDir(), "p.dat"), cfg.B,
				emio.Pipeline{Enabled: true})
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := emio.NewCtxWithDisk(cfg, d)
			if err != nil {
				t.Fatal(err)
			}
			return ctx, d.Close
		}},
	}
}

// algo is one algorithm under fault test. run must return an error when the
// underlying I/O fails; it gets a fresh ctx and staged input each attempt.
type algo struct {
	name string
	n    int
	run  func(ctx *emio.Ctx, f *emio.File) error
}

func algos() []algo {
	return []algo{
		{"extsort", 4000, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := extsort.Sort(ctx, f)
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"emsel.Select", 4000, func(ctx *emio.Ctx, f *emio.File) error {
			_, err := emsel.Select(ctx, f, int64(f.Len()/2))
			return err
		}},
		{"emsel.SplitAtRank", 4000, func(ctx *emio.Ctx, f *emio.File) error {
			low, high, _, err := emsel.SplitAtRank(ctx, f, f.Len()/3)
			if err == nil {
				low.Release()
				high.Release()
			}
			return err
		}},
		{"mpart", 4000, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := mpart.Partition(ctx, f, []int64{1000, 2000, 1000})
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"msel", 1 << 14, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := msel.Select(ctx, f, []int64{100, 5000, 16000})
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"core.Splitters.right", 1 << 14, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := core.Splitters(ctx, f, core.Params{K: 8, A: 256, B: f.Len()})
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"core.Splitters.left", 1 << 14, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := core.Splitters(ctx, f, core.Params{K: 8, A: 0, B: f.Len() / 8})
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"core.Splitters.twosided", 1 << 14, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := core.Splitters(ctx, f, core.Params{K: 8, A: 64, B: f.Len() / 2})
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"core.Partition.right", 1 << 13, func(ctx *emio.Ctx, f *emio.File) error {
			res, err := core.Partition(ctx, f, core.Params{K: 8, A: 64, B: f.Len()})
			if err == nil {
				res.Release()
			}
			return err
		}},
		{"core.Partition.left", 1 << 13, func(ctx *emio.Ctx, f *emio.File) error {
			res, err := core.Partition(ctx, f, core.Params{K: 8, A: 0, B: f.Len() / 4})
			if err == nil {
				res.Release()
			}
			return err
		}},
		{"core.PrecisePartition", 1 << 13, func(ctx *emio.Ctx, f *emio.File) error {
			out, err := core.PrecisePartitionViaApprox(ctx, f, f.Len()/8)
			if err == nil {
				out.Release()
			}
			return err
		}},
		{"histogram", 1 << 14, func(ctx *emio.Ctx, f *emio.File) error {
			_, err := histogram.EquiDepth(ctx, f, 8, 0.5, 2)
			return err
		}},
	}
}

// runOnce executes the algorithm with no faults and returns its total reads
// and writes, so fault points can be placed across the trace.
func runOnce(t *testing.T, a algo) (reads, writes int64) {
	t.Helper()
	ctx, err := emio.NewCtx(emio.Config{M: 4096, B: 32})
	if err != nil {
		t.Fatal(err)
	}
	f := workload.File(ctx.Disk(), workload.Uniform, a.n, 7)
	ctx.Disk().ResetStats()
	if err := a.run(ctx, f); err != nil {
		t.Fatalf("%s: clean run failed: %v", a.name, err)
	}
	st := ctx.Disk().Stats()
	return st.Reads, st.Writes
}

func TestReadFaultsSurfaceCleanly(t *testing.T) {
	for _, be := range backendMatrix() {
		for _, a := range algos() {
			t.Run(be.name+"/"+a.name, func(t *testing.T) {
				reads, _ := runOnce(t, a)
				if reads == 0 {
					t.Skipf("%s performs no reads", a.name)
				}
				for _, frac := range []int64{0, 4, 2, 1} { // first, quarter, half, last
					point := int64(0)
					if frac > 0 {
						point = reads/frac + frac // stagger a little off exact fractions
					}
					if point >= reads {
						point = reads - 1
					}
					baseGoroutines := emio.NumGoroutines()
					ctx, close := be.mk(t)
					f := workload.File(ctx.Disk(), workload.Uniform, a.n, 7)
					ctx.Disk().ResetStats()
					count := int64(0)
					ctx.Disk().SetReadFault(func(*emio.File, int) error {
						count++
						if count == point+1 {
							return errInjected
						}
						return nil
					})
					err := a.run(ctx, f)
					ctx.Disk().SetReadFault(nil)
					if err == nil {
						t.Errorf("read fault at %d/%d: algorithm reported success", point, reads)
						close()
						continue
					}
					if !errors.Is(err, errInjected) {
						t.Errorf("read fault at %d/%d: error %v does not wrap the injected fault", point, reads, err)
					}
					if used := ctx.Mem().Used(); used != 0 {
						t.Errorf("read fault at %d/%d: leaked %d elements of memory", point, reads, used)
					}
					close()
					emio.RequireNoGoroutineLeaks(t, baseGoroutines)
				}
			})
		}
	}
}

func TestWriteFaultsSurfaceCleanly(t *testing.T) {
	for _, be := range backendMatrix() {
		for _, a := range algos() {
			t.Run(be.name+"/"+a.name, func(t *testing.T) {
				_, writes := runOnce(t, a)
				if writes == 0 {
					t.Skipf("%s performs no writes", a.name)
				}
				for _, frac := range []int64{0, 2, 1} {
					point := int64(0)
					if frac > 0 {
						point = writes / frac
					}
					if point >= writes {
						point = writes - 1
					}
					baseGoroutines := emio.NumGoroutines()
					ctx, close := be.mk(t)
					f := workload.File(ctx.Disk(), workload.Uniform, a.n, 7)
					ctx.Disk().ResetStats()
					count := int64(0)
					ctx.Disk().SetWriteFault(func(*emio.File, int) error {
						count++
						if count == point+1 {
							return errInjected
						}
						return nil
					})
					err := a.run(ctx, f)
					ctx.Disk().SetWriteFault(nil)
					if err == nil {
						t.Errorf("write fault at %d/%d: algorithm reported success", point, writes)
						close()
						continue
					}
					if !errors.Is(err, errInjected) {
						t.Errorf("write fault at %d/%d: error %v does not wrap the injected fault", point, writes, err)
					}
					if used := ctx.Mem().Used(); used != 0 {
						t.Errorf("write fault at %d/%d: leaked %d elements of memory", point, writes, used)
					}
					close()
					emio.RequireNoGoroutineLeaks(t, baseGoroutines)
				}
			})
		}
	}
}

// TestFaultEveryPointSmall exhaustively faults every single read of a small
// multi-phase run (two-sided splitters), the strongest leak check.
func TestFaultEveryPointSmall(t *testing.T) {
	a := algo{"core.Splitters.twosided.small", 2000, func(ctx *emio.Ctx, f *emio.File) error {
		out, err := core.Splitters(ctx, f, core.Params{K: 4, A: 50, B: 1500})
		if err == nil {
			out.Release()
		}
		return err
	}}
	reads, _ := runOnce(t, a)
	for point := int64(0); point < reads; point += 7 { // every 7th keeps it fast
		ctx, err := emio.NewCtx(emio.Config{M: 4096, B: 32})
		if err != nil {
			t.Fatal(err)
		}
		f := workload.File(ctx.Disk(), workload.Uniform, a.n, 7)
		count := int64(0)
		ctx.Disk().SetReadFault(func(*emio.File, int) error {
			count++
			if count == point+1 {
				return errInjected
			}
			return nil
		})
		err = a.run(ctx, f)
		ctx.Disk().SetReadFault(nil)
		if err == nil {
			t.Fatalf("fault at read %d: success reported", point)
		}
		if used := ctx.Mem().Used(); used != 0 {
			t.Fatalf("fault at read %d: leaked %d", point, used)
		}
	}
}
