package empart

import (
	"testing"

	"repro/internal/emio"
	"repro/internal/verify"
	"repro/internal/workload"
)

func newSys(t *testing.T) *System {
	t.Helper()
	sys, err := New(Config{M: 4096, B: 32})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func stageUniform(t *testing.T, sys *System, n int, seed uint64) ([]Elem, *File) {
	t.Helper()
	elems := workload.Elems(workload.Uniform, n, sys.Config().B, seed)
	return elems, sys.Stage(elems)
}

// checkNoLeaks releases the given algorithm outputs and then asserts that no
// scratch file is still live on sys's disk: every file an algorithm created
// internally must have been released by the time it returned.
func checkNoLeaks(t *testing.T, sys *System, outs ...*File) {
	t.Helper()
	for _, f := range outs {
		if f != nil && !f.Released() {
			f.Release()
		}
	}
	emio.RequireNoLeaks(t, sys.Ctx())
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{M: 3, B: 2}); err == nil {
		t.Error("M < 2B accepted")
	}
}

func TestSortFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 5000, 1)
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Read(out)
	if err := verify.Sorted(got); err != nil {
		t.Fatal(err)
	}
	if err := verify.SameMultiset(got, in); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sys, out)
}

func TestSelectFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 2000, 2)
	e, err := sys.Select(f, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MultiSelect(in, []int64{1000}, []Elem{e}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSelectFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 4096, 3)
	ranks := []int64{1, 1024, 2048, 4096}
	out, err := sys.MultiSelect(f, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MultiSelect(in, ranks, sys.Read(out)); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sys, out)
}

func TestMultiPartitionFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 3000, 4)
	sizes := []int64{1000, 500, 1500}
	out, err := sys.MultiPartition(f, sizes)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Read(out)
	if err := verify.SameMultiset(got, in); err != nil {
		t.Fatal(err)
	}
	if err := verify.OrderedSegments(got, sizes); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sys, out)
}

func TestSplittersFacadeAllVariants(t *testing.T) {
	for _, p := range []Params{
		{K: 8, A: 16, B: 1 << 40}, // right-grounded
		{K: 8, A: 0, B: 1024},     // left-grounded
		{K: 8, A: 64, B: 2048},    // two-sided
	} {
		sys := newSys(t)
		in, f := stageUniform(t, sys, 4096, 5)
		out, err := sys.Splitters(f, p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if _, err := verify.Splitters(in, sys.Read(out), p.K, p.A, p.B); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		checkNoLeaks(t, sys, out)
	}
}

func TestPartitionFacadeAllVariants(t *testing.T) {
	for _, p := range []Params{
		{K: 8, A: 16, B: 1 << 40},
		{K: 8, A: 0, B: 1024},
		{K: 8, A: 64, B: 2048},
	} {
		sys := newSys(t)
		in, f := stageUniform(t, sys, 4096, 6)
		res, err := sys.Partition(f, p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if err := verify.Partition(in, sys.Read(res.Data), res.Sizes, p.K, p.A, p.B); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		checkNoLeaks(t, sys, res.Data)
	}
}

func TestPrecisePartitionFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 3000, 7)
	out, err := sys.PrecisePartition(f, 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.PrecisePartition(in, sys.Read(out), 500); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sys, out)
}

func TestHistogramFacade(t *testing.T) {
	sys := newSys(t)
	_, f := stageUniform(t, sys, 4096, 8)
	buckets, err := sys.EquiDepthHistogram(f, 8, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total != 4096 {
		t.Fatalf("histogram depths sum to %d", total)
	}
	checkNoLeaks(t, sys)
}

func TestStatsAndPeakMemoryAccounting(t *testing.T) {
	sys := newSys(t)
	_, f := stageUniform(t, sys, 4096, 9)
	if sys.Stats().Total() != 0 {
		t.Fatal("staging charged I/Os")
	}
	if _, err := sys.Sort(f); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Total() == 0 {
		t.Fatal("sort charged no I/Os")
	}
	if sys.PeakMemory() == 0 || sys.PeakMemory() > 4096 {
		t.Fatalf("peak memory %d implausible", sys.PeakMemory())
	}
	sys.ResetStats()
	if sys.Stats().Total() != 0 {
		t.Fatal("ResetStats did not reset")
	}
}

func TestMachineFormulaAccess(t *testing.T) {
	sys := newSys(t)
	mc := sys.Machine()
	if mc.M != 4096 || mc.B != 32 {
		t.Fatalf("machine %+v", mc)
	}
	if mc.Sort(1<<20) <= 0 {
		t.Fatal("bound formula broken")
	}
}

func TestVariantReexports(t *testing.T) {
	p := Params{K: 4, A: 0, B: 1000}
	if v := p.Variant(1000); v != LeftGrounded {
		t.Fatalf("variant %v", v)
	}
	if RightGrounded.String() != "right-grounded" || TwoSided.String() != "two-sided" {
		t.Fatal("variant names broken")
	}
}

func TestEndToEndMeasuredVsBounds(t *testing.T) {
	// Facade-level shape check: measured right-grounded splitters cost is
	// sublinear and within a constant of the formula.
	sys := newSys(t)
	n := 1 << 17
	_, f := stageUniform(t, sys, n, 10)
	sys.ResetStats()
	p := Params{K: 16, A: 8, B: int64(n)}
	out, err := sys.Splitters(f, p)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()
	got := float64(sys.Stats().Total())
	formula := sys.Machine().SplittersRight(p.A, p.K)
	if got > 40*formula {
		t.Errorf("measured %v vs formula %v: constant too large", got, formula)
	}
	if scan := float64(n) / 32; got > scan/4 {
		t.Errorf("not sublinear: %v vs scan %v", got, scan)
	}
}

func TestDiskFootprintFacade(t *testing.T) {
	sys := newSys(t)
	_, f := stageUniform(t, sys, 4096, 20)
	d := sys.Ctx().Disk()
	if d.LiveBlocks() != 4096/32 {
		t.Fatalf("live blocks %d, want %d", d.LiveBlocks(), 4096/32)
	}
	d.ResetPeakLive()
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	peak := sys.PeakDiskBlocks()
	if peak <= d.LiveBlocks() || peak > 4*4096/32 {
		t.Errorf("sort peak footprint %d blocks implausible", peak)
	}
	out.Release()
	if d.LiveBlocks() != 4096/32 {
		t.Errorf("after release live = %d", d.LiveBlocks())
	}
}

func TestDistributionSortFacade(t *testing.T) {
	sys := newSys(t)
	in, f := stageUniform(t, sys, 6000, 21)
	out, err := sys.DistributionSort(f)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Read(out)
	if err := verify.Sorted(got); err != nil {
		t.Fatal(err)
	}
	if err := verify.SameMultiset(got, in); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sys, out)
}
