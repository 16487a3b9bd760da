package mpart

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

func randFile(d *emio.Disk, n int, keyRange int64, rng *rand.Rand) ([]emio.Elem, *emio.File) {
	s := make([]emio.Elem, n)
	for i := range s {
		s[i] = emio.Elem{Key: rng.Int64N(keyRange), Aux: int64(i)}
	}
	return s, emio.BuildFile(d, "in", s)
}

// checkPartition verifies the multi-partition contract: the output is a
// permutation of the input whose consecutive segments of the given sizes are
// order-respecting (every element of segment i precedes every element of
// segment i+1 in the total order) — equivalently, the output agrees with the
// sorted input as a multiset segment by segment.
func checkPartition(t *testing.T, in []emio.Elem, out *emio.File, sizes []int64) {
	t.Helper()
	got := out.Snapshot()
	if int64(len(got)) != int64(len(in)) {
		t.Fatalf("output holds %d of %d elements", len(got), len(in))
	}
	want := append([]emio.Elem(nil), in...)
	sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
	off := int64(0)
	for seg, sz := range sizes {
		segGot := append([]emio.Elem(nil), got[off:off+sz]...)
		sort.Slice(segGot, func(i, j int) bool { return emio.Less(segGot[i], segGot[j]) })
		for i, e := range segGot {
			if e != want[off+int64(i)] {
				t.Fatalf("segment %d: element %d is %v, want %v", seg, i, e, want[off+int64(i)])
			}
		}
		off += sz
	}
}

func TestPartitionEqualSizes(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	rng := rand.New(rand.NewPCG(1, 1))
	in, f := randFile(ctx.Disk(), 10000, 1<<40, rng)
	sizes := make([]int64, 10)
	for i := range sizes {
		sizes[i] = 1000
	}
	out, err := Partition(ctx, f, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, out, sizes)
	if ctx.Mem().Used() != 0 {
		t.Fatalf("leaked %d memory", ctx.Mem().Used())
	}
}

func TestPartitionSkewedSizes(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	rng := rand.New(rand.NewPCG(2, 2))
	in, f := randFile(ctx.Disk(), 10000, 1000, rng) // heavy duplicates
	sizes := []int64{1, 4999, 1, 0, 4998, 1}
	out, err := Partition(ctx, f, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, out, sizes)
}

func TestPartitionSinglePartition(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	in, f := randFile(ctx.Disk(), 500, 500, rand.New(rand.NewPCG(3, 3)))
	out, err := Partition(ctx, f, []int64{500})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, out, []int64{500})
}

func TestPartitionAllSingletons(t *testing.T) {
	// K = N: multi-partition degenerates to sorting.
	ctx := mustCtx(t, 128, 8)
	in, f := randFile(ctx.Disk(), 600, 1<<30, rand.New(rand.NewPCG(4, 4)))
	sizes := make([]int64, 600)
	for i := range sizes {
		sizes[i] = 1
	}
	out, err := Partition(ctx, f, sizes)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Snapshot()
	want := append([]emio.Elem(nil), in...)
	sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("K=N output not sorted at %d", i)
		}
	}
}

func TestPartitionAllEqualKeys(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	in := make([]emio.Elem, 5000)
	for i := range in {
		in[i] = emio.Elem{Key: 9, Aux: int64(i)}
	}
	f := emio.BuildFile(ctx.Disk(), "eq", in)
	sizes := []int64{1000, 3000, 1000}
	out, err := Partition(ctx, f, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, in, out, sizes)
}

func TestPartitionSortedAndReverseInput(t *testing.T) {
	for name, gen := range map[string]func(i int) int64{
		"sorted":  func(i int) int64 { return int64(i) },
		"reverse": func(i int) int64 { return int64(5000 - i) },
	} {
		ctx := mustCtx(t, 256, 16)
		in := make([]emio.Elem, 5000)
		for i := range in {
			in[i] = emio.Elem{Key: gen(i), Aux: int64(i)}
		}
		f := emio.BuildFile(ctx.Disk(), name, in)
		sizes := []int64{1250, 1250, 1250, 1250}
		out, err := Partition(ctx, f, sizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPartition(t, in, out, sizes)
	}
}

func TestPartitionValidation(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	_, f := randFile(ctx.Disk(), 100, 100, rand.New(rand.NewPCG(5, 5)))
	if _, err := Partition(ctx, f, []int64{50, 49}); err == nil {
		t.Error("wrong sum accepted")
	}
	if _, err := Partition(ctx, f, []int64{101, -1}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestPartitionIOComplexity(t *testing.T) {
	// Cost must scale as (N/B) lg_{M/B} K: fixing N and raising K from 2 to
	// 512 should cost at most ~lg_{M/B}(512)/lg_{M/B}(2) more, and every run
	// stays under c*(N/B)(1+lg_f K).
	n := 1 << 16
	m, b := 1<<10, 32
	var costs []float64
	for _, k := range []int{2, 16, 512} {
		ctx := mustCtx(t, m, b)
		_, f := randFile(ctx.Disk(), n, 1<<40, rand.New(rand.NewPCG(7, 7)))
		sizes := make([]int64, k)
		for i := range sizes {
			sizes[i] = int64(n / k)
		}
		ctx.Disk().ResetStats()
		if _, err := Partition(ctx, f, sizes); err != nil {
			t.Fatal(err)
		}
		costs = append(costs, float64(ctx.Disk().Stats().Total()))
		fan := float64(fanOut(ctx))
		levels := 1 + math.Ceil(math.Log(float64(k))/math.Log(fan))
		bound := 8 * float64(n) / float64(b) * levels
		if costs[len(costs)-1] > bound {
			t.Errorf("K=%d: %v I/Os > bound %v", k, costs[len(costs)-1], bound)
		}
	}
	if costs[2] > costs[0]*6 {
		t.Errorf("cost grew too fast with K: %v", costs)
	}
}

func TestPartitionMemoryWithinBudget(t *testing.T) {
	for _, tc := range []struct{ m, b int }{{64, 8}, {256, 16}, {1024, 32}} {
		ctx := mustCtx(t, tc.m, tc.b)
		_, f := randFile(ctx.Disk(), 20000, 1<<40, rand.New(rand.NewPCG(8, 8)))
		sizes := make([]int64, 100)
		for i := range sizes {
			sizes[i] = 200
		}
		if _, err := Partition(ctx, f, sizes); err != nil {
			t.Fatalf("M=%d B=%d: %v", tc.m, tc.b, err)
		}
		if ctx.Mem().Peak() > int64(tc.m) {
			t.Errorf("M=%d B=%d: peak %d over budget", tc.m, tc.b, ctx.Mem().Peak())
		}
	}
}

func TestPartitionInputUntouched(t *testing.T) {
	ctx := mustCtx(t, 256, 16)
	in, f := randFile(ctx.Disk(), 1000, 1000, rand.New(rand.NewPCG(9, 9)))
	if _, err := Partition(ctx, f, []int64{500, 500}); err != nil {
		t.Fatal(err)
	}
	got := f.Snapshot()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestPartitionProperty(t *testing.T) {
	prop := func(keys []int64, cuts []uint16) bool {
		if len(keys) == 0 {
			return true
		}
		ctx, err := emio.NewCtx(emio.Config{M: 64, B: 8})
		if err != nil {
			return false
		}
		in := make([]emio.Elem, len(keys))
		for i, k := range keys {
			in[i] = emio.Elem{Key: k % 8, Aux: int64(i)} // force duplicates
		}
		f := emio.BuildFile(ctx.Disk(), "p", in)
		// Derive sizes from random cuts.
		n := int64(len(in))
		ranks := make(map[int64]bool)
		for _, c := range cuts {
			r := int64(c) % n
			if r > 0 {
				ranks[r] = true
			}
		}
		var sizes []int64
		prev := int64(0)
		sorted := make([]int64, 0, len(ranks))
		for r := range ranks {
			sorted = append(sorted, r)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, r := range sorted {
			sizes = append(sizes, r-prev)
			prev = r
		}
		sizes = append(sizes, n-prev)
		out, err := Partition(ctx, f, sizes)
		if err != nil {
			return false
		}
		// Inline segment check.
		got := out.Snapshot()
		want := append([]emio.Elem(nil), in...)
		sort.Slice(want, func(i, j int) bool { return emio.Less(want[i], want[j]) })
		off := int64(0)
		for _, sz := range sizes {
			seg := append([]emio.Elem(nil), got[off:off+sz]...)
			sort.Slice(seg, func(i, j int) bool { return emio.Less(seg[i], seg[j]) })
			for i := range seg {
				if seg[i] != want[off+int64(i)] {
					return false
				}
			}
			off += sz
		}
		return ctx.Mem().Used() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
