package histogram

import (
	"testing"

	"repro/internal/emio"
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

func checkHistogram(t *testing.T, in []emio.Elem, buckets []Bucket, k int, lo, hi float64) {
	t.Helper()
	if len(buckets) != k {
		t.Fatalf("%d buckets, want %d", len(buckets), k)
	}
	n := int64(len(in))
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total != n {
		t.Fatalf("depths sum to %d, want %d", total, n)
	}
	minD := int64(float64(n) / float64(k) * (1 - lo))
	maxD := int64(float64(n)/float64(k)*(1+hi)) + 1
	for i, b := range buckets {
		if b.Count < minD || b.Count > maxD {
			t.Fatalf("bucket %d depth %d outside [%d,%d]", i, b.Count, minD, maxD)
		}
	}
	// Boundaries ascending; recount against the raw data.
	for i := 1; i < len(buckets); i++ {
		if !emio.Less(buckets[i-1].Upper, buckets[i].Upper) {
			t.Fatalf("boundaries not ascending at %d", i)
		}
	}
	counts := make([]int64, k)
	for _, e := range in {
		j := 0
		for j < k-1 && emio.Less(buckets[j].Upper, e) {
			j++
		}
		counts[j]++
	}
	for i := range counts {
		if counts[i] != buckets[i].Count {
			t.Fatalf("bucket %d reported %d, recount %d", i, buckets[i].Count, counts[i])
		}
	}
}

func TestEquiDepthExact(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	n := 1 << 13
	f := workload.File(ctx.Disk(), workload.Uniform, n, 1)
	in := f.Snapshot()
	buckets, err := EquiDepth(ctx, f, 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkHistogram(t, in, buckets, 16, 0, 0)
	for i, b := range buckets {
		if b.Count != int64(n/16) {
			t.Errorf("exact bucket %d depth %d, want %d", i, b.Count, n/16)
		}
	}
	if ctx.Mem().Used() != 0 {
		t.Fatalf("leaked %d", ctx.Mem().Used())
	}
}

func TestEquiDepthApproximate(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	n := 1 << 14
	f := workload.File(ctx.Disk(), workload.Uniform, n, 2)
	in := f.Snapshot()
	buckets, err := EquiDepth(ctx, f, 16, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkHistogram(t, in, buckets, 16, 0.5, 0.5)
}

func TestEquiDepthNNotMultipleOfK(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	f := workload.File(ctx.Disk(), workload.Uniform, 10007, 3) // prime
	in := f.Snapshot()
	buckets, err := EquiDepth(ctx, f, 10, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	checkHistogram(t, in, buckets, 10, 0.25, 0.25)
}

func TestEquiDepthSkewedData(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	n := 1 << 13
	f := workload.File(ctx.Disk(), workload.ZipfLike, n, 4)
	in := f.Snapshot()
	buckets, err := EquiDepth(ctx, f, 8, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkHistogram(t, in, buckets, 8, 0.5, 0.5)
}

func TestEquiDepthK1(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	f := workload.File(ctx.Disk(), workload.Uniform, 100, 5)
	buckets, err := EquiDepth(ctx, f, 1, 0, 0)
	if err != nil || len(buckets) != 1 || buckets[0].Count != 100 {
		t.Fatalf("K=1: %v err=%v", buckets, err)
	}
}

func TestEquiDepthValidation(t *testing.T) {
	ctx := mustCtx(t, 4096, 32)
	f := workload.File(ctx.Disk(), workload.Uniform, 100, 6)
	if _, err := EquiDepth(ctx, f, 0, 0, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := EquiDepth(ctx, f, 101, 0, 0); err == nil {
		t.Error("K>n accepted")
	}
	if _, err := EquiDepth(ctx, f, 4, -0.5, 0); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := EquiDepth(ctx, f, 4, 0, -0.5); err == nil {
		t.Error("negative hi accepted")
	}
	if _, err := EquiDepth(ctx, f, ctx.M(), 0, 0); err == nil {
		t.Error("K over memory accepted")
	}
}

func TestApproxCheaperThanExactOnWideSlack(t *testing.T) {
	// The paper's point: accepting slack reduces I/O. When the upper slack
	// frees b to reach N (only "at least a" binds), the right-grounded
	// algorithm finds the boundaries sublinearly — a large saving over the
	// exact quantile. (With symmetric moderate slack, all optimal bounds
	// collapse to Theta(scan) for small K and there is nothing to win; the
	// asymmetric regime is where the theory separates.)
	n := 1 << 17
	run := func(lo, hi float64) int64 {
		ctx := mustCtx(t, 4096, 32)
		f := workload.File(ctx.Disk(), workload.Uniform, n, 7)
		ctx.Disk().ResetStats()
		if _, err := EquiDepth(ctx, f, 8, lo, hi); err != nil {
			t.Fatal(err)
		}
		return ctx.Disk().Stats().Total()
	}
	exact := run(0, 0)
	approx := run(0.9, 8) // b clamps to N: right-grounded, a = 0.1*N/K
	if approx*2 >= exact {
		t.Errorf("asymmetric approx cost %d not well below exact cost %d", approx, exact)
	}
}

func TestDepths(t *testing.T) {
	b := []Bucket{{Count: 3}, {Count: 7}}
	d := Depths(b)
	if len(d) != 2 || d[0] != 3 || d[1] != 7 {
		t.Errorf("Depths = %v", d)
	}
}

// TestEquiDepthEmptyLastBucket: on descending input the left-grounded
// splitters pad with the first elements of the file, the maximum among
// them, so the last bucket is empty; its boundary is still the maximum.
func TestEquiDepthEmptyLastBucket(t *testing.T) {
	ctx := mustCtx(t, 256, 8)
	in := make([]emio.Elem, 64)
	for i := range in {
		in[i] = emio.Elem{Key: int64(len(in) - i), Aux: int64(i)}
	}
	f := emio.BuildFile(ctx.Disk(), "desc", in)
	buckets, err := EquiDepth(ctx, f, 8, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if last := buckets[len(buckets)-1]; last.Count != 0 || last.Upper != in[0] {
		t.Fatalf("last bucket %+v, want an empty bucket bounded by the maximum %v", last, in[0])
	}
	if used := ctx.Mem().Used(); used != 0 {
		t.Errorf("accountant holds %d elements", used)
	}
}
