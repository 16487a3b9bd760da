// Package histogram builds equi-depth histograms, the motivating application
// the paper gives for approximate K-splitters: the bucket boundaries of an
// exact equi-depth histogram with K buckets are the 1/K-quantile of the data,
// and if each bucket may deviate from N/K by a relative slack eps, the
// boundaries are an approximate K-splitters instance — computable with fewer
// I/Os than the exact quantile, and far fewer than sorting.
package histogram

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emio"
	"repro/internal/inmem"
	"repro/internal/msel"
)

// Bucket is one histogram bucket: all elements e with prev.Upper < e <= Upper
// in the total order (the first bucket is unbounded below), and the number of
// such elements.
type Bucket struct {
	Upper emio.Elem // inclusive upper boundary; the max element for the last bucket
	Count int64
}

// EquiDepth builds a K-bucket equi-depth histogram of f with asymmetric
// relative depth slack: every bucket's count lies within
// [floor((1-lo)N/K), ceil((1+hi)N/K)]. lo = hi = 0 demands the exact
// 1/K-quantile. K must be at most M/4 so the boundaries fit in memory for the
// counting scan, and at most n.
//
// When slack is allowed and K divides N, the boundaries come from the
// approximate splitters algorithm; the larger the slack, the cheaper — and
// when (1+hi)N/K reaches N (only the lower bound binds), the right-grounded
// algorithm finds the boundaries in sublinear I/Os, the paper's headline
// phenomenon. With no usable slack the boundaries come from exact
// multi-selection.
func EquiDepth(ctx *emio.Ctx, f *emio.File, k int, lo, hi float64) ([]Bucket, error) {
	n := f.Len()
	if k < 1 || int64(k) > n {
		return nil, fmt.Errorf("histogram: K=%d out of [1,%d]", k, n)
	}
	if k > ctx.M()/4 {
		return nil, fmt.Errorf("histogram: K=%d boundaries exceed memory (max %d)", k, ctx.M()/4)
	}
	if lo < 0 || hi < 0 {
		return nil, fmt.Errorf("histogram: negative slack lo=%v hi=%v", lo, hi)
	}
	hsp := ctx.StartSpan("histogram/equi-depth", emio.AttrInt("n", n), emio.AttrInt("k", int64(k)))
	defer hsp.End()

	var spFile *emio.File
	var err error
	if (lo > 0 || hi > 0) && n%int64(k) == 0 {
		target := float64(n) / float64(k)
		a := int64((1 - lo) * target)
		if a < 0 {
			a = 0
		}
		b := int64((1+hi)*target) + 1
		if b > n {
			b = n
		}
		spFile, err = core.Splitters(ctx, f, core.Params{K: int64(k), A: a, B: b})
	} else {
		ranks := make([]int64, k-1)
		for i := range ranks {
			// round(i*n/k) kept strictly within [1, n-1]
			r := (int64(i+1)*n + int64(k)/2) / int64(k)
			if r < 1 {
				r = 1
			}
			if r > n-1 {
				r = n - 1
			}
			ranks[i] = r
		}
		for i := 1; i < len(ranks); i++ { // monotone after clamping
			if ranks[i] < ranks[i-1] {
				ranks[i] = ranks[i-1]
			}
		}
		spFile, err = msel.Select(ctx, f, ranks)
	}
	if err != nil {
		return nil, err
	}
	sp, err := emio.LoadAll(ctx, spFile)
	if err != nil {
		spFile.Release()
		return nil, err
	}
	spFile.Release()
	defer ctx.FreeElems(sp)
	// The splitters problem permits any output order (the left-grounded
	// padding path uses that freedom); bucket counting needs them ascending.
	inmem.Sort(sp)

	csp := ctx.StartSpan("histogram/count")
	buckets, maxElem, err := countBuckets(ctx, f, sp)
	csp.End()
	if err != nil {
		return nil, err
	}
	out := make([]Bucket, k)
	for i := 0; i < k-1; i++ {
		out[i] = Bucket{Upper: sp[i], Count: buckets[i]}
	}
	out[k-1] = Bucket{Upper: maxElem, Count: buckets[k-1]}
	return out, nil
}

// countBuckets counts the elements per splitter-induced bucket in one scan,
// also tracking the overall maximum (the last bucket's boundary). sp must be
// ascending; duplicates (possible with eps-padding on skewed data) are
// tolerated by the search.
func countBuckets(ctx *emio.Ctx, f *emio.File, sp []emio.Elem) ([]int64, emio.Elem, error) {
	counts, err := ctx.AllocInts(len(sp) + 1)
	if err != nil {
		return nil, emio.Elem{}, err
	}
	defer ctx.FreeInts(counts)
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		return nil, emio.Elem{}, err
	}
	defer r.Close()
	var maxE emio.Elem
	first := true
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		if first || emio.Less(maxE, e) {
			maxE = e
			first = false
		}
		counts[emio.Bucket(sp, e)]++
	}
	if err := r.Err(); err != nil {
		return nil, emio.Elem{}, err
	}
	out := make([]int64, len(counts))
	copy(out, counts)
	return out, maxE, nil
}

// Depths extracts just the counts, for assertions and reporting.
func Depths(buckets []Bucket) []int64 {
	d := make([]int64, len(buckets))
	for i, b := range buckets {
		d[i] = b.Count
	}
	return d
}
