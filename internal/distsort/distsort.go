// Package distsort implements external distribution sort — the
// Aggarwal-Vitter counterpart to merge sort — on top of the approximate
// splitter machinery: each level finds Θ(M/B) splitters of the current chunk
// in linear I/Os (package approxsplit, the paper's Hu-et-al substitute),
// scatters the chunk into the induced buckets, and recurses until buckets
// fit in memory. The cost is the same Θ((N/B) lg_{M/B}(N/B)) as merge sort;
// the package exists to exercise the splitter engine as a real substrate
// consumer and to provide the classic merge-vs-distribution ablation.
//
// Config.Workers parallelises only the in-memory sort of the base-case
// buckets (inmem.ParallelSort): the I/O schedule, the output and the trace
// are the same at every worker count.
package distsort

import (
	"fmt"

	"repro/internal/approxsplit"
	"repro/internal/emio"
	"repro/internal/inmem"
)

// Sort returns a new file holding the elements of in sorted by (Key, Aux).
// The input file is unchanged.
func Sort(ctx *emio.Ctx, in *emio.File) (*emio.File, error) {
	sp := ctx.StartSpan("distsort/sort", emio.AttrInt("n", in.Len()))
	defer sp.End()
	out := ctx.Scratch("distsorted")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	if err := sortInto(ctx, in, false, w); err != nil {
		w.Close()
		out.Release()
		return nil, err
	}
	if err := w.Close(); err != nil {
		out.Release()
		return nil, err
	}
	if out.Len() != in.Len() {
		out.Release()
		return nil, fmt.Errorf("distsort: emitted %d of %d elements", out.Len(), in.Len())
	}
	return out, nil
}

// fanOut picks the bucket count per level: one writer buffer per bucket plus
// a reader, the splitter array and the counters must fit. g*B + 2B + 2.5g <=
// M gives g ≈ (M - 2B)/(B + 3), further capped by approxsplit's own bound.
func fanOut(ctx *emio.Ctx) int {
	g := (ctx.M() - 2*ctx.B()) / (ctx.B() + 3)
	if maxG := approxsplit.MaxBuckets(ctx.Config()); g > maxG {
		g = maxG
	}
	if g < 2 {
		g = 2
	}
	return g
}

// sortInto appends chunk's elements in sorted order onto w, releasing chunk
// when owned.
func sortInto(ctx *emio.Ctx, chunk *emio.File, owned bool, w *emio.Writer) error {
	defer func() {
		if owned {
			chunk.Release()
		}
	}()
	n := chunk.Len()
	if n == 0 {
		return nil
	}
	if n <= int64(ctx.M()/3) {
		buf, err := emio.LoadAll(ctx, chunk)
		if err != nil {
			return err
		}
		inmem.ParallelSort(buf, ctx.Config().Workers)
		for _, e := range buf {
			w.Append(e)
		}
		ctx.FreeElems(buf)
		return w.Err()
	}

	g := fanOut(ctx)
	if int64(g) > n {
		g = int(n)
	}
	// One span per distribution level; the recursion into oversized buckets
	// nests below it, so the span tree depth is the recursion depth.
	lsp := ctx.StartSpan("distsort/level", emio.AttrInt("n", n), emio.AttrInt("g", int64(g)))
	defer lsp.End()
	res, err := approxsplit.Splitters(ctx, chunk, g)
	if err != nil {
		return err
	}
	ssp := ctx.StartSpan("distsort/scatter", emio.AttrInt("n", n))
	buckets, err := scatter(ctx, chunk, res.Splitters)
	ssp.End()
	res.Close()
	if err != nil {
		return err
	}
	// Strict progress: with at least one splitter every bucket excludes at
	// least the splitters outside it, but guard explicitly so a degenerate
	// split fails loudly instead of recursing forever.
	for _, b := range buckets {
		if b.Len() >= n {
			for _, bb := range buckets {
				bb.Release()
			}
			return fmt.Errorf("distsort: no progress (bucket of %d from chunk of %d)", b.Len(), n)
		}
	}
	for i, b := range buckets {
		if err := sortInto(ctx, b, true, w); err != nil {
			for _, rest := range buckets[i+1:] {
				rest.Release()
			}
			return err
		}
	}
	return nil
}

// scatter streams chunk into len(sp)+1 bucket files in one pass.
func scatter(ctx *emio.Ctx, chunk *emio.File, sp []emio.Elem) ([]*emio.File, error) {
	nb := len(sp) + 1
	buckets := make([]*emio.File, nb)
	writers := make([]*emio.Writer, nb)
	cleanup := func() {
		for _, bw := range writers {
			if bw != nil {
				bw.Close()
			}
		}
		for _, b := range buckets {
			if b != nil {
				b.Release()
			}
		}
	}
	for i := range buckets {
		buckets[i] = ctx.Scratch("dbucket")
		bw, err := emio.NewWriter(ctx, buckets[i])
		if err != nil {
			cleanup()
			return nil, err
		}
		writers[i] = bw
	}
	r, err := emio.NewReader(ctx, chunk)
	if err != nil {
		cleanup()
		return nil, err
	}
	var idx [emio.Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), emio.Lanes)]
			c = c[len(batch):]
			emio.Classify(sp, batch, idx[:])
			for i, e := range batch {
				writers[idx[i]].Append(e)
			}
		}
	}
	rerr := r.Err()
	r.Close()
	for i, bw := range writers {
		if err := bw.Close(); err != nil && rerr == nil {
			rerr = err
		}
		writers[i] = nil
	}
	if rerr != nil {
		cleanup()
		return nil, rerr
	}
	return buckets, nil
}
