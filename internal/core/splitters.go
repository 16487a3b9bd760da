package core

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/emsel"
	"repro/internal/extsort"
	"repro/internal/msel"
)

// Splitters solves the approximate K-splitters problem (paper §5.1,
// Theorem 5): it returns a file of K-1 elements of f such that every bucket
// they induce on f holds between p.A and p.B elements. The problem statement
// allows any output order; the right-grounded, two-sided and unpadded
// left-grounded paths emit ascending splitters, while the left-grounded
// padding path appends its extra splitters unsorted after the selected ones.
//
// The input file is unchanged. Costs match Table 1 per variant. Elements are
// assumed pairwise distinct as records ((Key, Aux) unique), the library-wide
// convention.
func Splitters(ctx *emio.Ctx, f *emio.File, p Params) (*emio.File, error) {
	n := f.Len()
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	sp := ctx.StartSpan("core/splitters",
		emio.AttrInt("n", n), emio.AttrInt("k", p.K), emio.AttrInt("a", p.A), emio.AttrInt("b", p.B),
		emio.AttrStr("variant", p.Variant(n).String()))
	defer sp.End()
	if p.K == 1 {
		return ctx.Scratch("splitters"), nil // zero splitters
	}
	switch p.Variant(n) {
	case RightGrounded:
		return splittersRight(ctx, f, p)
	case LeftGrounded:
		return splittersLeft(ctx, f, p)
	default:
		return splittersTwoSided(ctx, f, p)
	}
}

// splittersRight implements the b = N case in O((1 + aK/B) lg_{M/B}(K/B))
// I/Os: take aK arbitrary elements S' (the first aK of the file), and return
// the 1/K-quantile of S', i.e. the elements of S'-rank a, 2a, ..., (K-1)a.
// Each induced bucket keeps at least its a elements of S', so its size is at
// least a; b = N never binds.
func splittersRight(ctx *emio.Ctx, f *emio.File, p Params) (*emio.File, error) {
	if p.A < 1 {
		// a = 0 with b = N is fully trivial; the left-grounded path covers it.
		return splittersLeft(ctx, f, p)
	}
	sprime, err := takePrefix(ctx, f, p.A*p.K)
	if err != nil {
		return nil, err
	}
	ranks := make([]int64, p.K-1)
	for i := range ranks {
		ranks[i] = int64(i+1) * p.A
	}
	out, err := msel.Select(ctx, sprime, ranks)
	sprime.Release()
	return out, err
}

// splittersLeft implements the a = 0 case in O((N/B) lg_{M/B}(N/(bB))) I/Os:
// set K' = ceil(N/b) and select the elements of rank b, 2b, ..., (K'-1)b.
// The first K'-1 buckets then hold exactly b elements and the last holds
// N - (K'-1)b <= b; a = 0 never binds. If K' < K, the remaining K-K'
// splitters are arbitrary distinct elements — extra splitters only subdivide
// buckets further, so sizes stay within [0, b].
func splittersLeft(ctx *emio.Ctx, f *emio.File, p Params) (*emio.File, error) {
	n := f.Len()
	b := p.clampB(n)
	kp := ceilDiv(n, b)

	// When the K'-1 selected splitters cannot be kept memory-resident for
	// the padding scan, fall back to one full sort that yields selected and
	// padding splitters in a single pass. The paper leaves this padding step
	// unanalysed ("arbitrary distinct elements"); see DESIGN.md §4.
	if kp < p.K && kp-1 > int64(ctx.M()/4) {
		return splittersLeftViaSort(ctx, f, p.K, b, kp)
	}

	ranks := make([]int64, kp-1)
	for i := range ranks {
		ranks[i] = int64(i+1) * b
	}
	base, err := msel.Select(ctx, f, ranks)
	if err != nil {
		return nil, err
	}
	if kp == p.K {
		return base, nil
	}
	return padDistinct(ctx, f, base, p.K-kp)
}

// padDistinct builds the padded splitter file: the selected splitters of base
// (at most M/4 of them, ascending; consumed) followed by `need` further
// elements of f distinct from them, found in one scan of f.
func padDistinct(ctx *emio.Ctx, f *emio.File, base *emio.File, need int64) (*emio.File, error) {
	sp := ctx.StartSpan("core/pad-distinct", emio.AttrInt("need", need))
	defer sp.End()
	have, err := emio.LoadAll(ctx, base)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeElems(have)
	base.Release()
	out := ctx.Scratch("splitters")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	for _, e := range have {
		w.Append(e)
	}
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		w.Close()
		out.Release()
		return nil, err
	}
	var idx [emio.Lanes]int
	for need > 0 {
		c := r.Chunk()
		if len(c) == 0 {
			break
		}
		for len(c) > 0 && need > 0 {
			// At most need elements per batch: each appends at most one
			// splitter, so the scan examines exactly the elements a
			// one-at-a-time loop would.
			batch := c[:min(int64(len(c)), emio.Lanes, need)]
			c = c[len(batch):]
			emio.Classify(have, batch, idx[:])
			for i, e := range batch {
				if j := idx[i]; j < len(have) && have[j] == e {
					continue // already a splitter
				}
				w.Append(e)
				need--
			}
		}
	}
	rerr := r.Err()
	r.Close()
	if err := w.Close(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr == nil && need > 0 {
		rerr = fmt.Errorf("core: input exhausted with %d padding splitters missing", need)
	}
	if rerr != nil {
		out.Release()
		return nil, rerr
	}
	return out, nil
}

// splittersLeftViaSort handles the heavily padded left-grounded case by
// sorting once and emitting, in a single pass over the sorted file, the
// rank-multiples of b as selected splitters and the smallest non-multiple
// ranks as padding, until K-1 splitters are out.
func splittersLeftViaSort(ctx *emio.Ctx, f *emio.File, k, b, kp int64) (*emio.File, error) {
	sp := ctx.StartSpan("core/left-sort-path", emio.AttrInt("k", k), emio.AttrInt("kp", kp))
	defer sp.End()
	sorted, err := extsort.Sort(ctx, f)
	if err != nil {
		return nil, err
	}
	defer sorted.Release()
	out := ctx.Scratch("splitters")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, sorted)
	if err != nil {
		w.Close()
		out.Release()
		return nil, err
	}
	emitted, extras := int64(0), k-kp
	rank := int64(0)
	for emitted < k-1 {
		e, ok := r.Next()
		if !ok {
			break
		}
		rank++
		if rank%b == 0 && rank/b <= kp-1 {
			w.Append(e) // a selected splitter
			emitted++
		} else if extras > 0 {
			w.Append(e) // a padding splitter
			extras--
			emitted++
		}
	}
	rerr := r.Err()
	r.Close()
	if err := w.Close(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr == nil && emitted != k-1 {
		rerr = fmt.Errorf("core: sorted pass emitted %d of %d splitters", emitted, k-1)
	}
	if rerr != nil {
		out.Release()
		return nil, rerr
	}
	return out, nil
}

// splittersTwoSided implements the 0 < a, b < N case in
// O((aK/B) lg_{M/B}(K/B) + (N/B) lg_{M/B}(N/(bB))) I/Os.
func splittersTwoSided(ctx *emio.Ctx, f *emio.File, p Params) (*emio.File, error) {
	n := f.Len()
	b := p.clampB(n)
	// Wide-margin regime: a >= N/2K or b <= 2N/K. The plain 1/K-quantile is
	// already legal (every bucket holds exactly N/K in [a, b]) and costs
	// O((N/B) lg_{M/B}(K/B)), within the two-sided bound.
	if p.A >= n/(2*p.K) || b <= 2*n/p.K {
		ranks := make([]int64, p.K-1)
		for i := range ranks {
			ranks[i] = int64(i+1) * (n / p.K)
		}
		return msel.Select(ctx, f, ranks)
	}

	// Narrow regime: split S into the aK' smallest (S_low) and the rest, with
	// K' = floor((bK - N)/(b - a)); then s_1..s_{K'-1} is the 1/K'-quantile
	// of S_low (buckets of exactly a), s_K' is max(S_low), and the rest is
	// the 1/(K-K')-quantile of S_high (buckets of floor/ceil of
	// |S_high|/(K-K'), inside [a, b] by the choice of K').
	kp := (b*p.K - n) / (b - p.A)
	if kp < 1 || kp >= p.K {
		return nil, fmt.Errorf("core: internal: K'=%d outside [1,%d) for N=%d a=%d b=%d K=%d",
			kp, p.K, n, p.A, b, p.K)
	}
	low, high, sKp, err := emsel.SplitAtRank(ctx, f, p.A*kp)
	if err != nil {
		return nil, err
	}
	defer low.Release()
	defer high.Release()

	lowRanks := make([]int64, kp-1)
	for i := range lowRanks {
		lowRanks[i] = int64(i+1) * p.A
	}
	lows, err := msel.Select(ctx, low, lowRanks)
	if err != nil {
		return nil, err
	}
	h := high.Len()
	rem := p.K - kp
	highRanks := make([]int64, rem-1)
	for i := range highRanks {
		highRanks[i] = int64(i+1) * h / rem
	}
	highs, err := msel.Select(ctx, high, highRanks)
	if err != nil {
		lows.Release()
		return nil, err
	}

	out := ctx.Scratch("splitters")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		lows.Release()
		highs.Release()
		return nil, err
	}
	err = appendFile(ctx, w, lows)
	if err == nil {
		w.Append(sKp)
		err = appendFile(ctx, w, highs)
	} else {
		highs.Release()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// takePrefix copies the first k elements of f into a new file, costing
// O(1 + k/B) I/Os (only the blocks actually holding the prefix are read).
func takePrefix(ctx *emio.Ctx, f *emio.File, k int64) (*emio.File, error) {
	if k > f.Len() {
		return nil, fmt.Errorf("core: prefix %d of %d-element file", k, f.Len())
	}
	sp := ctx.StartSpan("core/take-prefix", emio.AttrInt("k", k))
	defer sp.End()
	out := ctx.Scratch("prefix")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		w.Close()
		out.Release()
		return nil, err
	}
	for i := int64(0); i < k; i++ {
		e, ok := r.Next()
		if !ok {
			break
		}
		w.Append(e)
	}
	rerr := r.Err()
	r.Close()
	if err := w.Close(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr == nil && out.Len() != k {
		rerr = fmt.Errorf("core: prefix read %d of %d", out.Len(), k)
	}
	if rerr != nil {
		out.Release()
		return nil, rerr
	}
	return out, nil
}
