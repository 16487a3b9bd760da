package extsort

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/emio"
)

func mustCtx(t *testing.T, m, b int) *emio.Ctx {
	t.Helper()
	ctx, err := emio.NewCtx(emio.Config{M: m, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randKeys(n int, rng *rand.Rand) []emio.Elem {
	s := make([]emio.Elem, n)
	for i := range s {
		s[i] = emio.Elem{Key: rng.Int64N(int64(n)*2 + 1), Aux: int64(i)}
	}
	return s
}

func checkSorted(t *testing.T, in []emio.Elem, out *emio.File) {
	t.Helper()
	want := append([]emio.Elem(nil), in...)
	sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
	got := out.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("sorted %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSortBasic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 4096} {
		ctx := mustCtx(t, 64, 8)
		in := randKeys(n, rng)
		f := emio.BuildFile(ctx.Disk(), "in", in)
		out, err := Sort(ctx, f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSorted(t, in, out)
		if ctx.Mem().Used() != 0 {
			t.Fatalf("n=%d: leaked %d memory", n, ctx.Mem().Used())
		}
	}
}

func TestSortAlreadySortedAndReverse(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	n := 1000
	asc := make([]emio.Elem, n)
	desc := make([]emio.Elem, n)
	for i := 0; i < n; i++ {
		asc[i] = emio.Elem{Key: int64(i), Aux: int64(i)}
		desc[i] = emio.Elem{Key: int64(n - i), Aux: int64(i)}
	}
	for name, in := range map[string][]emio.Elem{"asc": asc, "desc": desc} {
		f := emio.BuildFile(ctx.Disk(), name, in)
		out, err := Sort(ctx, f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSorted(t, in, out)
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	in := make([]emio.Elem, 500)
	for i := range in {
		in[i] = emio.Elem{Key: 42, Aux: int64(i)}
	}
	out, err := Sort(ctx, emio.BuildFile(ctx.Disk(), "eq", in))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
}

func TestSortInputUntouched(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	in := randKeys(200, rand.New(rand.NewPCG(2, 2)))
	f := emio.BuildFile(ctx.Disk(), "in", in)
	if _, err := Sort(ctx, f); err != nil {
		t.Fatal(err)
	}
	got := f.Snapshot()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestSortIOComplexity(t *testing.T) {
	// Measured cost must match (2N/B)(1 + passes) within a small constant,
	// where passes = ceil(lg_f(#runs)) with f the merge fan-in.
	for _, tc := range []struct{ n, m, b int }{
		{1 << 12, 256, 16},
		{1 << 14, 256, 16},
		{1 << 14, 1 << 10, 32},
		{1 << 16, 1 << 10, 32},
	} {
		ctx := mustCtx(t, tc.m, tc.b)
		in := emio.BuildFile(ctx.Disk(), "io", randKeys(tc.n, rand.New(rand.NewPCG(3, 3))))
		ctx.Disk().ResetStats()
		if _, err := Sort(ctx, in); err != nil {
			t.Fatal(err)
		}
		got := float64(ctx.Disk().Stats().Total())
		nb := float64(tc.n) / float64(tc.b)
		runCap := float64((tc.m/tc.b - 2) * tc.b)
		runs := math.Ceil(float64(tc.n) / runCap)
		fan := float64((tc.m - tc.b) / (tc.b + 4))
		passes := math.Ceil(math.Log(runs) / math.Log(fan))
		if passes < 0 {
			passes = 0
		}
		bound := 2*nb*(1+passes) + 2*(1+passes) // slack for partial blocks
		if got > bound {
			t.Errorf("N=%d M=%d B=%d: %v I/Os > bound %v (runs=%v fan=%v passes=%v)",
				tc.n, tc.m, tc.b, got, bound, runs, fan, passes)
		}
		if got < nb { // must at least read the input
			t.Errorf("N=%d: impossible I/O count %v < scan %v", tc.n, got, nb)
		}
	}
}

// TestCostMatchesSort pins Cost to the measured logical I/O of Sort: empty
// and one-element inputs, sizes that are not a multiple of B, one run, one
// merge pass and several passes (M=32, B=4 merges with fan-in 2).
func TestCostMatchesSort(t *testing.T) {
	for _, mb := range []struct{ m, b int }{{32, 4}, {64, 8}, {256, 16}, {256, 32}, {1 << 10, 32}} {
		for _, n := range []int{0, 1, 7, 100, 1000, 5000, 12345} {
			ctx := mustCtx(t, mb.m, mb.b)
			in := emio.BuildFile(ctx.Disk(), "cost", randKeys(n, rand.New(rand.NewPCG(5, uint64(n)))))
			ctx.Disk().ResetStats()
			out, err := Sort(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			out.Release()
			if got, want := Cost(int64(n), mb.m, mb.b), ctx.Disk().Stats().Total(); got != want {
				t.Errorf("N=%d M=%d B=%d: Cost = %d, Sort measured %d", n, mb.m, mb.b, got, want)
			}
		}
	}
}

func TestSortMultiPassTinyMemory(t *testing.T) {
	// M=32, B=4 forces many runs and multiple merge passes.
	ctx := mustCtx(t, 32, 4)
	in := randKeys(5000, rand.New(rand.NewPCG(4, 4)))
	out, err := Sort(ctx, emio.BuildFile(ctx.Disk(), "tiny", in))
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	if ctx.Mem().Peak() > 32 {
		t.Errorf("peak memory %d exceeds M=32", ctx.Mem().Peak())
	}
}

func TestSortPeakMemoryWithinBudget(t *testing.T) {
	for _, tc := range []struct{ m, b int }{{64, 8}, {256, 16}, {48, 6}} {
		ctx := mustCtx(t, tc.m, tc.b)
		in := randKeys(4000, rand.New(rand.NewPCG(5, 5)))
		if _, err := Sort(ctx, emio.BuildFile(ctx.Disk(), "mem", in)); err != nil {
			t.Fatalf("M=%d B=%d: %v", tc.m, tc.b, err)
		}
		if ctx.Mem().Peak() > int64(tc.m) {
			t.Errorf("M=%d B=%d: peak %d over budget", tc.m, tc.b, ctx.Mem().Peak())
		}
	}
}

func TestFormRunsAreSortedAndComplete(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	in := randKeys(500, rand.New(rand.NewPCG(6, 6)))
	runs, err := FormRuns(ctx, emio.BuildFile(ctx.Disk(), "fr", in))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, r := range runs {
		s := r.Snapshot()
		for j := 1; j < len(s); j++ {
			if emio.Less(s[j], s[j-1]) {
				t.Fatalf("run %d not sorted at %d", i, j)
			}
		}
		total += r.Len()
	}
	if total != 500 {
		t.Fatalf("runs hold %d of 500 elements", total)
	}
	// Run capacity is (M/B-2)*B = 48.
	for i, r := range runs[:len(runs)-1] {
		if r.Len() != 48 {
			t.Errorf("run %d has %d elements, want full 48", i, r.Len())
		}
	}
}

func TestMergeAllEmptyList(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	out, err := MergeAll(ctx, nil)
	if err != nil || out.Len() != 0 {
		t.Fatalf("MergeAll(nil) = len %d, err %v", out.Len(), err)
	}
}

func TestSortProperty(t *testing.T) {
	prop := func(keys []int64) bool {
		ctx, err := emio.NewCtx(emio.Config{M: 64, B: 8})
		if err != nil {
			return false
		}
		in := make([]emio.Elem, len(keys))
		for i, k := range keys {
			in[i] = emio.Elem{Key: k, Aux: int64(i)}
		}
		out, err := Sort(ctx, emio.BuildFile(ctx.Disk(), "p", in))
		if err != nil {
			return false
		}
		got := out.Snapshot()
		want := append([]emio.Elem(nil), in...)
		sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return ctx.Mem().Used() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMergeAllWithFanInCorrectAndCostlier(t *testing.T) {
	// A capped fan-in must still sort correctly and must cost strictly more
	// I/Os than the natural fan-in (extra merge passes).
	in := randKeys(4000, rand.New(rand.NewPCG(7, 7)))
	run := func(fan int) (*emio.File, int64) {
		ctx := mustCtx(t, 256, 16)
		f := emio.BuildFile(ctx.Disk(), "fan", in)
		ctx.Disk().ResetStats()
		runs, err := FormRuns(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := MergeAllWithFanIn(ctx, runs, fan)
		if err != nil {
			t.Fatal(err)
		}
		return out, ctx.Disk().Stats().Total()
	}
	out2, io2 := run(2)
	checkSorted(t, in, out2)
	outN, ioN := run(0)
	checkSorted(t, in, outN)
	if io2 <= ioN {
		t.Errorf("fan=2 cost %d <= natural %d", io2, ioN)
	}
}

func TestMergeAllWithFanInIgnoresSillyValues(t *testing.T) {
	// maxFan of 1 or negative falls back to the natural fan-in.
	ctx := mustCtx(t, 256, 16)
	in := randKeys(500, rand.New(rand.NewPCG(8, 8)))
	f := emio.BuildFile(ctx.Disk(), "s", in)
	runs, err := FormRuns(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MergeAllWithFanIn(ctx, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
}

func TestSortScratchFootprintLinear(t *testing.T) {
	// The sort's peak live disk footprint must stay within a small constant
	// of the input size (runs + one merge generation).
	ctx := mustCtx(t, 256, 16)
	n := 20000
	in := emio.BuildFile(ctx.Disk(), "fp", randKeys(n, rand.New(rand.NewPCG(9, 9))))
	ctx.Disk().ResetPeakLive()
	out, err := Sort(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()
	inputBlocks := int64((n + 15) / 16)
	if peak := ctx.Disk().PeakLiveBlocks(); peak > 4*inputBlocks {
		t.Errorf("peak scratch %d blocks > 4x input (%d)", peak, inputBlocks)
	}
}
