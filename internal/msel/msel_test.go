package msel

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/emio"
	"repro/internal/intermix"
	"repro/internal/workload"
)

func mustCtx(t *testing.T, m, b int) *emio.Ctx {
	t.Helper()
	ctx, err := emio.NewCtx(emio.Config{M: m, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randFile(d *emio.Disk, n int, keyRange int64, rng *rand.Rand) ([]emio.Elem, *emio.File) {
	s := make([]emio.Elem, n)
	for i := range s {
		s[i] = emio.Elem{Key: rng.Int64N(keyRange), Aux: int64(i)}
	}
	return s, emio.BuildFile(d, "in", s)
}

func oracle(in []emio.Elem) []emio.Elem {
	c := append([]emio.Elem(nil), in...)
	sort.Slice(c, func(i, j int) bool { return emio.Less(c[i], c[j]) })
	return c
}

func checkSelect(t *testing.T, ctx *emio.Ctx, in []emio.Elem, f *emio.File, ranks []int64) {
	t.Helper()
	out, err := Select(ctx, f, ranks)
	if err != nil {
		t.Fatalf("Select(%d ranks): %v", len(ranks), err)
	}
	got := out.Snapshot()
	want := oracle(in)
	if len(got) != len(ranks) {
		t.Fatalf("got %d results for %d ranks", len(got), len(ranks))
	}
	for i, r := range ranks {
		if got[i] != want[r-1] {
			t.Fatalf("rank %d = %v, want %v", r, got[i], want[r-1])
		}
	}
	out.Release()
	if ctx.Mem().Used() != 0 {
		t.Fatalf("leaked %d memory", ctx.Mem().Used())
	}
}

func TestSelectBaseCaseSmallK(t *testing.T) {
	ctx := mustCtx(t, 4096, 32) // m = 17
	rng := rand.New(rand.NewPCG(1, 1))
	in, f := randFile(ctx.Disk(), 1<<15, 1<<40, rng)
	checkSelect(t, ctx, in, f, []int64{1, 100, 5000, 16000, 32000, 32768})
}

func TestSelectSingleRank(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(2, 2))
	in, f := randFile(ctx.Disk(), 1<<14, 1<<30, rng)
	for _, r := range []int64{1, 8192, 16384} {
		checkSelect(t, ctx, in, f, []int64{r})
	}
}

func TestSelectGeneralCaseLargeK(t *testing.T) {
	ctx := mustCtx(t, 4096, 32) // m = 17, so K = 300 exercises the general case
	rng := rand.New(rand.NewPCG(3, 3))
	in, f := randFile(ctx.Disk(), 1<<15, 1<<40, rng)
	ranks := make([]int64, 300)
	for i := range ranks {
		ranks[i] = 1 + rng.Int64N(1<<15)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	checkSelect(t, ctx, in, f, ranks)
}

func TestSelectEquiSpacedQuantiles(t *testing.T) {
	// The use case of the paper's splitters algorithms: the 1/K-quantile.
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(4, 4))
	n := 1 << 14
	in, f := randFile(ctx.Disk(), n, 1<<40, rng)
	k := 64
	ranks := make([]int64, k-1)
	for i := range ranks {
		ranks[i] = int64((i + 1) * n / k)
	}
	checkSelect(t, ctx, in, f, ranks)
}

func TestSelectDuplicateRanks(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(5, 5))
	in, f := randFile(ctx.Disk(), 1<<14, 1<<30, rng)
	checkSelect(t, ctx, in, f, []int64{5, 5, 5, 9000, 9000, 16384, 16384})
}

func TestSelectDuplicateKeys(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(6, 6))
	in, f := randFile(ctx.Disk(), 1<<14, 8, rng) // 8 distinct keys
	checkSelect(t, ctx, in, f, []int64{1, 2000, 4096, 9000, 16384})
}

func TestSelectAllEqualKeys(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	in := make([]emio.Elem, 1<<14)
	for i := range in {
		in[i] = emio.Elem{Key: 5, Aux: int64(i)}
	}
	f := emio.BuildFile(ctx.Disk(), "eq", in)
	checkSelect(t, ctx, in, f, []int64{1, 8192, 16384})
}

func TestSelectEmptyRanks(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	_, f := randFile(ctx.Disk(), 100, 100, rand.New(rand.NewPCG(7, 7)))
	out, err := Select(ctx, f, nil)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty ranks: len=%d err=%v", out.Len(), err)
	}
}

func TestSelectValidation(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	_, f := randFile(ctx.Disk(), 100, 100, rand.New(rand.NewPCG(8, 8)))
	for _, bad := range [][]int64{{0}, {101}, {-5}, {50, 10}} {
		if _, err := Select(ctx, f, bad); err == nil {
			t.Errorf("ranks %v accepted", bad)
		}
	}
}

func TestSelectTinyMemoryFallback(t *testing.T) {
	// M = 64 < 240: the per-rank fallback must still be correct.
	ctx := mustCtx(t, 64, 8)
	rng := rand.New(rand.NewPCG(9, 9))
	in, f := randFile(ctx.Disk(), 2000, 1<<30, rng)
	checkSelect(t, ctx, in, f, []int64{1, 500, 1000, 2000})
}

func TestSelectMemoryWithinBudget(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(11, 11))
	_, f := randFile(ctx.Disk(), 1<<16, 1<<40, rng)
	ranks := make([]int64, 200)
	for i := range ranks {
		ranks[i] = 1 + rng.Int64N(1<<16)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	out, err := Select(ctx, f, ranks)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()
	if ctx.Mem().Peak() > 4096 {
		t.Errorf("peak memory %d over M=4096", ctx.Mem().Peak())
	}
}

func TestSelectBaseCaseIsLinear(t *testing.T) {
	// For K <= m the cost must be O(N/B): scan-equivalents bounded and with
	// decaying increments across quadrupling N.
	var perScan []float64
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18} {
		ctx := mustCtx(t, 4096, 32)
		rng := rand.New(rand.NewPCG(12, 12))
		_, f := randFile(ctx.Disk(), n, 1<<40, rng)
		ranks := []int64{int64(n / 4), int64(n / 2), int64(3 * n / 4)}
		ctx.Disk().ResetStats()
		out, err := Select(ctx, f, ranks)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
		perScan = append(perScan, float64(ctx.Disk().Stats().Total())/(float64(n)/32))
	}
	for i, s := range perScan {
		if s > 40 {
			t.Errorf("size %d: %.1f scan-equivalents, want <= 40", i, s)
		}
	}
	// Linear cost means the scan constant converges: the change per 4x
	// growth must shrink in magnitude (a hidden log factor would add a
	// constant increment every quadrupling).
	inc1 := math.Abs(perScan[1] - perScan[0])
	inc2 := math.Abs(perScan[2] - perScan[1])
	if inc2 > inc1*0.9+0.25 {
		t.Errorf("base-case cost not converging to linear: %v", perScan)
	}
}

func TestSelectMatchesOracleProperty(t *testing.T) {
	prop := func(keys []int64, rawRanks []uint16) bool {
		if len(keys) == 0 || len(rawRanks) == 0 {
			return true
		}
		ctx, err := emio.NewCtx(emio.Config{M: 960, B: 8})
		if err != nil {
			return false
		}
		in := make([]emio.Elem, len(keys))
		for i, k := range keys {
			in[i] = emio.Elem{Key: k % 32, Aux: int64(i)}
		}
		f := emio.BuildFile(ctx.Disk(), "p", in)
		ranks := make([]int64, 0, len(rawRanks))
		for _, r := range rawRanks {
			ranks = append(ranks, int64(r)%int64(len(in))+1)
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
		out, err := Select(ctx, f, ranks)
		if err != nil {
			return false
		}
		got := out.Snapshot()
		want := oracle(in)
		for i, r := range ranks {
			if got[i] != want[r-1] {
				return false
			}
		}
		out.Release()
		return ctx.Mem().Used() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGeneralCaseUsesChunking(t *testing.T) {
	// Sanity: the general case must engage for K > m and still answer
	// boundary ranks (exact chunk edges) correctly.
	ctx := mustCtx(t, 2400, 16) // m = 10
	if m := intermix.MaxGroups(ctx.Config()); m != 10 {
		t.Fatalf("test assumes m=10, got %d", m)
	}
	rng := rand.New(rand.NewPCG(13, 13))
	n := 1 << 13
	in, f := randFile(ctx.Disk(), n, 1<<40, rng)
	ranks := make([]int64, 40)
	for i := range ranks {
		ranks[i] = int64((i + 1) * n / 41)
	}
	checkSelect(t, ctx, in, f, ranks)
}

func TestSelectAllRanksOne(t *testing.T) {
	// Every query asks for the minimum: all groups duplicate the same
	// bucket with the same target.
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(14, 14))
	in, f := randFile(ctx.Disk(), 1<<14, 1<<30, rng)
	checkSelect(t, ctx, in, f, []int64{1, 1, 1, 1, 1})
}

func TestSelectAdjacentRanks(t *testing.T) {
	// Consecutive ranks land in the same bucket as distinct groups.
	ctx := mustCtx(t, 4096, 32)
	rng := rand.New(rand.NewPCG(15, 15))
	in, f := randFile(ctx.Disk(), 1<<14, 1<<30, rng)
	checkSelect(t, ctx, in, f, []int64{8000, 8001, 8002, 8003})
}

func FuzzMultiSelect(f *testing.F) {
	f.Add(uint16(1), uint16(99), uint8(0), uint64(1))
	f.Add(uint16(40), uint16(7), uint8(3), uint64(2))
	f.Add(uint16(300), uint16(1), uint8(6), uint64(3))
	f.Fuzz(func(t *testing.T, kRaw, spread uint16, kindRaw uint8, seed uint64) {
		n := int64(4096)
		k := int64(kRaw)%512 + 1
		kinds := workload.Kinds()
		kind := kinds[int(kindRaw)%len(kinds)]
		rng := rand.New(rand.NewPCG(seed, 17))
		ranks := make([]int64, k)
		cur := int64(1)
		for i := range ranks {
			ranks[i] = cur
			cur += rng.Int64N(int64(spread)%64 + 1) // nondecreasing, dup-friendly
			if cur > n {
				cur = n
			}
		}
		ctx, err := emio.NewCtx(emio.Config{M: 1024, B: 16})
		if err != nil {
			t.Fatal(err)
		}
		file := workload.File(ctx.Disk(), kind, int(n), seed)
		in := file.Snapshot()
		out, err := Select(ctx, file, ranks)
		if err != nil {
			t.Fatalf("ranks[0..2]=%v k=%d kind=%v: %v", ranks[:min(3, len(ranks))], k, kind, err)
		}
		got := out.Snapshot()
		want := oracle(in)
		for i, r := range ranks {
			if got[i] != want[r-1] {
				t.Fatalf("rank %d = %v, want %v", r, got[i], want[r-1])
			}
		}
		out.Release()
		if ctx.Mem().Used() != 0 {
			t.Fatalf("leaked %d", ctx.Mem().Used())
		}
	})
}
