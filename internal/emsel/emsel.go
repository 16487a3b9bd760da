// Package emsel implements exact single-rank selection on a file in O(n/B)
// I/Os: the external-memory form of the BFPRT median-of-medians algorithm
// (reference [3] of the paper). It is the L=1 special case of the
// L-intermixed selection primitive of paper §4.1, kept separate because the
// higher-level algorithms (two-sided splitters and partitioning, the
// multi-partition boundary case) need plain single selections on raw element
// files without the group-packing transform.
package emsel

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/inmem"
)

// Select returns the element of rank k (1-based) in f under the (Key, Aux)
// total order, in O(n/B) expected I/Os using randomized pivots (a median of
// random probes; about two scan-equivalents per halving, geometric total).
// The input file is not modified. SelectDeterministic gives the same answer
// with a worst-case guarantee at a higher constant.
func Select(ctx *emio.Ctx, f *emio.File, k int64) (emio.Elem, error) {
	return selectBy(ctx, f, k, randomPivot)
}

// SelectDeterministic is Select with the BFPRT median-of-medians pivot:
// worst-case O(n/B) I/Os, at roughly three times the constant of the
// randomized default.
func SelectDeterministic(ctx *emio.Ctx, f *emio.File, k int64) (emio.Elem, error) {
	return selectBy(ctx, f, k, medianOfMedians)
}

func selectBy(ctx *emio.Ctx, f *emio.File, k int64, pivoter func(*emio.Ctx, *emio.File) (emio.Elem, error)) (emio.Elem, error) {
	if k < 1 || k > f.Len() {
		return emio.Elem{}, fmt.Errorf("emsel: rank %d out of [1,%d]", k, f.Len())
	}
	sp := ctx.StartSpan("emsel/select", emio.AttrInt("n", f.Len()), emio.AttrInt("rank", k))
	defer sp.End()
	cur, owned := f, false
	for {
		n := cur.Len()
		if n <= int64(ctx.M()/3) {
			buf, err := emio.LoadAll(ctx, cur)
			var e emio.Elem
			if err == nil {
				e = inmem.Select(buf, int(k))
				ctx.FreeElems(buf)
			}
			if owned {
				cur.Release()
			}
			return e, err
		}

		rsp := ctx.StartSpan("emsel/round", emio.AttrInt("n", n))
		pivot, err := pivoter(ctx, cur)
		if err != nil {
			rsp.End()
			if owned {
				cur.Release()
			}
			return emio.Elem{}, err
		}

		less, greater, lt, eq, err := partitionAround(ctx, cur, pivot)
		rsp.End()
		if owned {
			cur.Release()
		}
		if err != nil {
			return emio.Elem{}, err
		}
		switch {
		case k <= lt:
			greater.Release()
			cur, owned = less, true
		case k <= lt+eq:
			less.Release()
			greater.Release()
			return pivot, nil
		default:
			less.Release()
			cur, owned = greater, true
			k -= lt + eq
		}
	}
}

// medianOfMedians streams f in groups of five, writes the group medians to a
// scratch file, and recursively selects that file's median: the standard
// BFPRT pivot, guaranteeing at least (3/10)n - O(1) elements on each side.
func medianOfMedians(ctx *emio.Ctx, f *emio.File) (emio.Elem, error) {
	sigma, err := emio.WriteScratch(ctx, "mom", func(w *emio.Writer) error {
		r, err := emio.NewReader(ctx, f)
		if err != nil {
			return err
		}
		var grp [5]emio.Elem
		g := 0
		for {
			e, ok := r.Next()
			if !ok {
				break
			}
			grp[g] = e
			g++
			if g == 5 {
				w.Append(inmem.MedianOfFive(grp[:]))
				g = 0
			}
		}
		err = r.Err()
		r.Close()
		if err != nil {
			return err
		}
		if g > 0 {
			w.Append(inmem.MedianOfFive(grp[:g]))
		}
		return nil
	})
	if err != nil {
		return emio.Elem{}, err
	}
	defer sigma.Release()
	return SelectDeterministic(ctx, sigma, (sigma.Len()+1)/2)
}

// randomPivot samples a few dozen elements by random block probes and returns
// their median: within a constant rank-distance of the true median with high
// probability, at O(lg n) I/Os — negligible against the partition scan.
// Partial last blocks bias the per-element weights slightly, which affects
// only the constant, never correctness (any returned element is a valid
// pivot).
func randomPivot(ctx *emio.Ctx, f *emio.File) (emio.Elem, error) {
	const probes = 33
	buf, err := ctx.AllocElems(ctx.B())
	if err != nil {
		return emio.Elem{}, err
	}
	defer ctx.FreeElems(buf)
	var sample [probes]emio.Elem
	rng := ctx.Rng()
	nb := f.NumBlocks()
	for i := 0; i < probes; i++ {
		n, err := f.ReadBlock(rng.IntN(nb), buf)
		if err != nil {
			return emio.Elem{}, err
		}
		sample[i] = buf[rng.IntN(n)]
	}
	s := sample[:]
	inmem.Sort(s)
	return s[probes/2], nil
}

// partitionAround splits f into the elements strictly less than and strictly
// greater than pivot, counting the ones equal to it, in one scan.
func partitionAround(ctx *emio.Ctx, f *emio.File, pivot emio.Elem) (less, greater *emio.File, lt, eq int64, err error) {
	less, greater = ctx.Scratch("lt"), ctx.Scratch("gt")
	if lt, eq, err = splitAround(ctx, f, pivot, less, greater, nil); err != nil {
		return nil, nil, 0, 0, err
	}
	return less, greater, lt, eq, nil
}

// splitAround is the pivot split of partitionAround and SplitAtRank: one scan
// of f that writes the elements below pivot to low and those above it to
// high, and counts the ones below and the ones equal to it. pad, when not
// nil, runs after the scan with both writers still open. The writers open
// and close low first. On failure both files are released.
func splitAround(ctx *emio.Ctx, f *emio.File, pivot emio.Elem, low, high *emio.File,
	pad func(lt, eq int64, wl, wh *emio.Writer) error) (lt, eq int64, err error) {
	defer func() {
		if err != nil {
			low.Release()
			high.Release()
		}
	}()
	wl, err := emio.NewWriter(ctx, low)
	if err != nil {
		return 0, 0, err
	}
	wh, err := emio.NewWriter(ctx, high)
	if err != nil {
		wl.Close()
		return 0, 0, err
	}
	r, err := emio.NewReader(ctx, f)
	if err == nil {
		for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
			for _, e := range c {
				switch emio.Compare(e, pivot) {
				case -1:
					wl.Append(e)
					lt++
				case 0:
					eq++
				default:
					wh.Append(e)
				}
			}
		}
		err = r.Err()
		r.Close()
	}
	if err == nil && pad != nil {
		err = pad(lt, eq, wl, wh)
	}
	if cerr := wl.Close(); err == nil {
		err = cerr
	}
	if cerr := wh.Close(); err == nil {
		err = cerr
	}
	return lt, eq, err
}

// SplitAtRank divides f into the k smallest elements and the n-k remaining
// ones, as two new files, in O(n/B) I/Os (one selection plus one distribution
// scan). It also returns the boundary element, the one of rank k (zero Elem
// when k is 0). Boundary ties are routed by count, so the split is exact even
// under fully duplicate records.
func SplitAtRank(ctx *emio.Ctx, f *emio.File, k int64) (low, high *emio.File, boundary emio.Elem, err error) {
	if k < 0 || k > f.Len() {
		return nil, nil, emio.Elem{}, fmt.Errorf("emsel: split rank %d out of [0,%d]", k, f.Len())
	}
	sp := ctx.StartSpan("emsel/split-at-rank", emio.AttrInt("n", f.Len()), emio.AttrInt("rank", k))
	defer sp.End()
	low = ctx.Scratch("low")
	high = ctx.Scratch("high")
	if k == 0 || k == f.Len() {
		// One side is everything; still perform the copy so the caller owns
		// independent files.
		dst, b := low, emio.Elem{}
		if k == 0 {
			dst = high
		} else if b, err = Select(ctx, f, k); err != nil {
			low.Release()
			high.Release()
			return nil, nil, emio.Elem{}, err
		}
		if err := emio.AppendAll(ctx, dst, f); err != nil {
			low.Release()
			high.Release()
			return nil, nil, emio.Elem{}, err
		}
		return low, high, b, nil
	}
	pivot, err := Select(ctx, f, k)
	if err != nil {
		low.Release()
		high.Release()
		return nil, nil, emio.Elem{}, err
	}
	// Records equal to the pivot are bit-identical to it, so they are counted
	// during the scan and materialised afterwards: low needs exactly
	// k - #(<pivot) of them, which is unknown until the scan ends.
	_, _, err = splitAround(ctx, f, pivot, low, high, func(lt, eq int64, wl, wh *emio.Writer) error {
		if lt >= k || lt+eq < k {
			return fmt.Errorf("emsel: SplitAtRank inconsistent pivot (lt=%d eq=%d k=%d)", lt, eq, k)
		}
		for i := lt; i < lt+eq; i++ {
			if i < k {
				wl.Append(pivot)
			} else {
				wh.Append(pivot)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, emio.Elem{}, err
	}
	return low, high, pivot, nil
}
