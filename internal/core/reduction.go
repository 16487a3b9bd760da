package core

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/emsel"
	"repro/internal/inmem"
)

// PrecisePartitionViaApprox performs precise (ceil(N/b))-partitioning —
// every partition except possibly the last has size exactly b — by the
// reduction of paper §3: first solve an approximate partitioning where every
// partition has size at most b, then re-chunk with a rolling remainder buffer
// R in O(N/B) additional I/Os. This is the reduction that transfers the
// multi-partition lower bound (Lemma 5) onto left-grounded approximate
// K-partitioning and proves Theorem 3; here it doubles as an executable
// algorithm and as the target of the RED-3 experiment.
//
// The output is the concatenation of the precise partitions; the input file
// is unchanged.
func PrecisePartitionViaApprox(ctx *emio.Ctx, f *emio.File, b int64) (*emio.File, error) {
	n := f.Len()
	if b < 1 {
		return nil, fmt.Errorf("%w: b=%d", ErrBadParams, b)
	}
	sp := ctx.StartSpan("core/precise-partition", emio.AttrInt("n", n), emio.AttrInt("b", b))
	defer sp.End()
	if b > n {
		b = n
	}
	k := ceilDiv(n, b)

	// Step 1: approximate K-partitioning with partition sizes in [0, b].
	// Any K >= ceil(N/b) works; using K = ceil(N/b) keeps Validate happy for
	// every n (the left-grounded path never relies on N | K).
	approx, err := partitionLeft(ctx, f, Params{K: k, A: 0, B: b})
	if err != nil {
		return nil, err
	}
	defer approx.Release()

	// Step 2: process P_1, ..., P_K in turn with the remainder buffer R.
	// After appending P_i to R, |R| <= 2b; if |R| > b, the b smallest
	// elements of R become the next precise partition and the rest carries
	// over. Each step costs O(b/B), so the whole pass is O(N/B).
	rsp := ctx.StartSpan("core/rechunk", emio.AttrInt("k", k))
	defer rsp.End()
	out, err := emio.WriteScratch(ctx, "precise", func(w *emio.Writer) error {
		r, err := emio.NewReader(ctx, approx.Data)
		if err != nil {
			return err
		}
		defer r.Close()

		rem := ctx.Scratch("R") // the rolling remainder
		remW, err := emio.NewWriter(ctx, rem)
		if err != nil {
			rem.Release()
			return err
		}
		for _, sz := range approx.Sizes {
			for j := int64(0); j < sz; j++ {
				e, ok := r.Next()
				if !ok {
					remW.Close()
					rem.Release()
					if err := r.Err(); err != nil {
						return err
					}
					return fmt.Errorf("core: approximate output exhausted early")
				}
				remW.Append(e)
			}
			if err := remW.Err(); err != nil {
				remW.Close()
				rem.Release()
				return err
			}
			// Flush R and split off full partitions of size b.
			if err := remW.Close(); err != nil {
				rem.Release()
				return err
			}
			for rem.Len() > b {
				low, high, _, err := splitRemainder(ctx, rem, b)
				rem.Release()
				if err != nil {
					return err
				}
				if err := appendFile(ctx, w, low); err != nil {
					high.Release()
					return err
				}
				rem = high
			}
			// Reopen R for appending. When R ends in a partial block it must be
			// rebuilt through a fresh file (|R| <= b elements, O(b/B) I/Os);
			// block-aligned R (including empty) is reopened in place.
			if rem.Len()%int64(ctx.B()) == 0 {
				remW, err = emio.NewWriter(ctx, rem)
				if err != nil {
					rem.Release()
					return err
				}
				continue
			}
			fresh := ctx.Scratch("R")
			remW, err = emio.NewWriter(ctx, fresh)
			if err != nil {
				rem.Release()
				fresh.Release()
				return err
			}
			if err := emio.StreamInto(ctx, remW, rem, rem.Len()); err != nil {
				remW.Close()
				rem.Release()
				fresh.Release()
				return err
			}
			rem.Release()
			rem = fresh
		}
		if err := remW.Close(); err != nil {
			rem.Release()
			return err
		}
		if rem.Len() == 0 {
			rem.Release()
			return nil
		}
		return appendFile(ctx, w, rem) // the final, possibly short partition
	})
	if err != nil {
		return nil, err
	}
	if out.Len() != n {
		out.Release()
		return nil, fmt.Errorf("core: precise partitioning emitted %d of %d", out.Len(), n)
	}
	return out, nil
}

// splitRemainder divides rem into its b smallest elements and the rest,
// in memory when it fits and by exact selection otherwise.
func splitRemainder(ctx *emio.Ctx, rem *emio.File, b int64) (low, high *emio.File, boundary emio.Elem, err error) {
	if rem.Len() <= int64(ctx.M()/3) {
		buf, err := emio.LoadAll(ctx, rem)
		if err != nil {
			return nil, nil, emio.Elem{}, err
		}
		inmem.Sort(buf)
		low, err := emio.StoreAll(ctx, "Rlow", buf[:b])
		if err != nil {
			ctx.FreeElems(buf)
			return nil, nil, emio.Elem{}, err
		}
		high, err := emio.StoreAll(ctx, "Rhigh", buf[b:])
		if err != nil {
			ctx.FreeElems(buf)
			low.Release()
			return nil, nil, emio.Elem{}, err
		}
		bnd := buf[b-1]
		ctx.FreeElems(buf)
		return low, high, bnd, nil
	}
	return emsel.SplitAtRank(ctx, rem, b)
}
