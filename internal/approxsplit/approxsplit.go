// Package approxsplit finds G-1 approximate splitters of a file in O(n/B)
// I/Os, dividing it into G buckets of Theta(n/G) elements each.
//
// The paper's multi-selection base case (§4.2) invokes, as a black box, the
// result of Hu, Sheng, Tao, Yang and Zhou (SODA'13, reference [6]): K = M
// splitters with buckets Theta(N/M) in O(N/B) I/Os. That construction is not
// described in the SPAA'14 paper, so this package substitutes a randomized
// oversampling splitter finder with the same interface and the same two
// properties the base case relies on — linear I/O cost and Theta(n/G) bucket
// balance (see DESIGN.md §4):
//
//  1. One Bernoulli-sampling scan spills an expected s*G-element sample to
//     disk (s = 32 oversampling).
//  2. The sample is sorted — in memory when it fits, by external merge sort
//     otherwise; either way the cost is o(n/B) whenever n >> M lg M, and the
//     verification step makes correctness independent of sample size.
//  3. Every (s)-th sample element becomes a splitter; a verification scan
//     counts the induced buckets, and the whole procedure retries with a
//     fresh seed if any bucket leaves [n/(8G), 8n/G]. With 32 sample points
//     per bucket a retry is already unlikely; the retry loop makes the
//     guarantee deterministic-on-success.
//
// Inputs of at most M/3 elements are solved exactly in memory (perfectly
// balanced buckets), which also serves tiny files and tests.
package approxsplit

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/extsort"
	"repro/internal/inmem"
)

// Oversample is the number of sample points aimed at each bucket.
const Oversample = 32

// Balance bounds: every bucket of the returned splitters holds between
// n/(LowerDivisor*G) and UpperFactor*n/G elements (verified, not just
// expected).
const (
	LowerDivisor = 8
	UpperFactor  = 8
)

// maxRetries bounds the resampling loop. The per-attempt failure probability
// is well under 1/2, so 24 retries push the overall failure probability below
// 2^-24; hitting the bound indicates a broken random source.
const maxRetries = 24

// Result carries the G-1 splitters in ascending (Key, Aux) order and the G
// verified bucket sizes: BucketSizes[i] = |f ∩ (s_{i-1}, s_i]| with the usual
// sentinels. Free the memory with Close.
type Result struct {
	ctx         *emio.Ctx
	Splitters   []emio.Elem
	BucketSizes []int64
}

// Close releases the Result's memory charges. Safe to call twice.
func (r *Result) Close() {
	if r.Splitters != nil {
		r.ctx.FreeElems(r.Splitters)
		r.Splitters = nil
	}
	if r.BucketSizes != nil {
		r.ctx.FreeInts(r.BucketSizes)
		r.BucketSizes = nil
	}
}

// MaxBuckets returns the largest admissible G for the configuration: the
// splitters and bucket counters must coexist in memory with working buffers,
// so G is capped at M/6.
func MaxBuckets(cfg emio.Config) int {
	return cfg.M / 6
}

// Splitters divides f into G buckets of Theta(n/G) elements and returns the
// G-1 splitters with their verified bucket sizes, in O(n/B) expected I/Os.
// G must lie in [1, MaxBuckets] and f must hold at least G elements.
func Splitters(ctx *emio.Ctx, f *emio.File, g int) (*Result, error) {
	n := f.Len()
	if g < 1 || g > MaxBuckets(ctx.Config()) {
		return nil, fmt.Errorf("approxsplit: G=%d out of [1,%d]", g, MaxBuckets(ctx.Config()))
	}
	if n < int64(g) {
		return nil, fmt.Errorf("approxsplit: %d elements cannot form %d buckets", n, g)
	}
	if g == 1 {
		return singleBucket(ctx, n)
	}
	if n <= int64(ctx.M()/3) {
		return exactInMemory(ctx, f, g)
	}
	sp := ctx.StartSpan("approxsplit/splitters", emio.AttrInt("n", n), emio.AttrInt("g", int64(g)))
	defer sp.End()
	for attempt := 0; attempt < maxRetries; attempt++ {
		asp := ctx.StartSpan("approxsplit/attempt", emio.AttrInt("attempt", int64(attempt)))
		res, ok, err := attemptSample(ctx, f, g)
		asp.End()
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return nil, fmt.Errorf("approxsplit: balance not achieved after %d attempts (n=%d, G=%d)", maxRetries, n, g)
}

func singleBucket(ctx *emio.Ctx, n int64) (*Result, error) {
	sizes, err := ctx.AllocInts(1)
	if err != nil {
		return nil, err
	}
	sizes[0] = n
	sp, err := ctx.AllocElems(0)
	if err != nil {
		ctx.FreeInts(sizes)
		return nil, err
	}
	return &Result{ctx: ctx, Splitters: sp, BucketSizes: sizes}, nil
}

// exactInMemory computes perfectly balanced splitters for a small file: the
// splitter s_i is the element of rank floor(i*n/G).
func exactInMemory(ctx *emio.Ctx, f *emio.File, g int) (*Result, error) {
	buf, err := emio.LoadAll(ctx, f)
	if err != nil {
		return nil, err
	}
	inmem.Sort(buf)
	n := int64(len(buf))
	sp, err := ctx.AllocElems(g - 1)
	if err != nil {
		ctx.FreeElems(buf)
		return nil, err
	}
	sizes, err := ctx.AllocInts(g)
	if err != nil {
		ctx.FreeElems(buf)
		ctx.FreeElems(sp)
		return nil, err
	}
	prev := int64(0)
	for i := 1; i < g; i++ {
		r := i * int(n) / g // floor(i*n/G) >= i since n >= G
		sp[i-1] = buf[r-1]
		sizes[i-1] = int64(r) - prev
		prev = int64(r)
	}
	sizes[g-1] = n - prev
	ctx.FreeElems(buf)
	return &Result{ctx: ctx, Splitters: sp, BucketSizes: sizes}, nil
}

// attemptSample runs one sample-pick-verify round. The boolean reports
// whether the verified balance held.
func attemptSample(ctx *emio.Ctx, f *emio.File, g int) (*Result, bool, error) {
	n := f.Len()
	target := int64(Oversample) * int64(g)
	ssp := ctx.StartSpan("approxsplit/sample", emio.AttrInt("target", target))
	sample, err := bernoulliSample(ctx, f, target)
	ssp.End()
	if err != nil {
		return nil, false, err
	}
	if sample.Len() < int64(g) {
		sample.Release() // absurdly unlucky sample; retry
		return nil, false, nil
	}
	osp := ctx.StartSpan("approxsplit/sort-sample", emio.AttrInt("s", sample.Len()))
	sorted, err := sortedSample(ctx, sample)
	osp.End()
	if err != nil {
		return nil, false, err
	}
	sp, err := pickEquiSpaced(ctx, sorted, g)
	sorted.Release()
	if err != nil {
		return nil, false, err
	}
	vsp := ctx.StartSpan("approxsplit/verify")
	sizes, err := countBuckets(ctx, f, sp)
	vsp.End()
	if err != nil {
		ctx.FreeElems(sp)
		return nil, false, err
	}
	lo := n / int64(LowerDivisor*g)
	hi := (int64(UpperFactor)*n + int64(g) - 1) / int64(g)
	for _, s := range sizes {
		if s < lo || s > hi {
			ctx.FreeElems(sp)
			ctx.FreeInts(sizes)
			return nil, false, nil
		}
	}
	return &Result{ctx: ctx, Splitters: sp, BucketSizes: sizes}, true, nil
}

// SplittersExact is the deterministic baseline for the ablation study: it
// sorts f outright and reads the exact rank-floor(i*n/G) elements off the
// sorted order, yielding perfectly balanced buckets at
// O((n/B) lg_{M/B}(n/B)) I/Os — the log factor the randomized sampling
// routine avoids. Same Result contract as Splitters.
func SplittersExact(ctx *emio.Ctx, f *emio.File, g int) (*Result, error) {
	n := f.Len()
	if g < 1 || g > MaxBuckets(ctx.Config()) {
		return nil, fmt.Errorf("approxsplit: G=%d out of [1,%d]", g, MaxBuckets(ctx.Config()))
	}
	if n < int64(g) {
		return nil, fmt.Errorf("approxsplit: %d elements cannot form %d buckets", n, g)
	}
	if g == 1 {
		return singleBucket(ctx, n)
	}
	esp := ctx.StartSpan("approxsplit/exact", emio.AttrInt("n", n), emio.AttrInt("g", int64(g)))
	defer esp.End()
	sorted, err := extsort.Sort(ctx, f)
	if err != nil {
		return nil, err
	}
	sp, err := pickEquiSpaced(ctx, sorted, g)
	sorted.Release()
	if err != nil {
		return nil, err
	}
	sizes, err := ctx.AllocInts(g)
	if err != nil {
		ctx.FreeElems(sp)
		return nil, err
	}
	prev := int64(0)
	for i := 1; i < g; i++ {
		r := int64(i) * n / int64(g)
		sizes[i-1] = r - prev
		prev = r
	}
	sizes[g-1] = n - prev
	return &Result{ctx: ctx, Splitters: sp, BucketSizes: sizes}, nil
}

// bernoulliSample scans f once, keeping each element independently with
// probability target/n, and spills the kept elements to a scratch file.
func bernoulliSample(ctx *emio.Ctx, f *emio.File, target int64) (*emio.File, error) {
	n := f.Len()
	p := float64(target) / float64(n)
	if p > 1 {
		p = 1
	}
	out := ctx.Scratch("sample")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		w.Close()
		return nil, err
	}
	rng := ctx.Rng()
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		if rng.Float64() < p {
			w.Append(e)
		}
	}
	rerr := r.Err()
	r.Close()
	if err := w.Close(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr != nil {
		out.Release()
		return nil, rerr
	}
	return out, nil
}

// sortedSample sorts the sample file, in memory when it fits in M/3 and by
// external merge sort otherwise, consuming the input file either way.
func sortedSample(ctx *emio.Ctx, sample *emio.File) (*emio.File, error) {
	if sample.Len() <= int64(ctx.M()/3) {
		buf, err := emio.LoadAll(ctx, sample)
		if err != nil {
			return nil, err
		}
		inmem.Sort(buf)
		out, err := emio.StoreAll(ctx, "sample-sorted", buf)
		ctx.FreeElems(buf)
		if err != nil {
			return nil, err
		}
		sample.Release()
		return out, nil
	}
	out, err := extsort.Sort(ctx, sample)
	if err != nil {
		return nil, err
	}
	sample.Release()
	return out, nil
}

// pickEquiSpaced streams the sorted sample and keeps the elements at ranks
// floor(i*S/G) for i = 1..G-1 as splitters (ascending by construction).
func pickEquiSpaced(ctx *emio.Ctx, sorted *emio.File, g int) ([]emio.Elem, error) {
	s := sorted.Len()
	sp, err := ctx.AllocElems(g - 1)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, sorted)
	if err != nil {
		ctx.FreeElems(sp)
		return nil, err
	}
	defer r.Close()
	next := 1
	rank := int64(0)
	for next < g {
		e, ok := r.Next()
		if !ok {
			break
		}
		rank++
		if rank == int64(next)*s/int64(g) {
			sp[next-1] = e
			next++
		}
	}
	if err := r.Err(); err != nil {
		ctx.FreeElems(sp)
		return nil, err
	}
	if next < g {
		ctx.FreeElems(sp)
		return nil, fmt.Errorf("approxsplit: sample exhausted after %d of %d splitters", next-1, g-1)
	}
	return sp, nil
}

// countBuckets scans f once and counts, for each of the G buckets induced by
// the sorted splitters sp, how many elements fall in it (total order).
func countBuckets(ctx *emio.Ctx, f *emio.File, sp []emio.Elem) ([]int64, error) {
	g := len(sp) + 1
	sizes, err := ctx.AllocInts(g)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		ctx.FreeInts(sizes)
		return nil, err
	}
	defer r.Close()
	var idx [emio.Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), emio.Lanes)]
			c = c[len(batch):]
			emio.Classify(sp, batch, idx[:])
			for _, j := range idx[:len(batch)] {
				sizes[j]++
			}
		}
	}
	if err := r.Err(); err != nil {
		ctx.FreeInts(sizes)
		return nil, err
	}
	return sizes, nil
}

// BucketOf returns the index in [0, len(sp)] of the bucket that e falls in:
// bucket i is the interval (sp[i-1], sp[i]] in the total order. Binary
// search by the classification kernel; CPU only.
func BucketOf(sp []emio.Elem, e emio.Elem) int { return emio.Bucket(sp, e) }
