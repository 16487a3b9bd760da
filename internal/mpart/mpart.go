// Package mpart implements the multi-partition problem (paper §1.1): given a
// file of N elements and prescribed sizes σ_1..σ_K summing to N, produce the
// concatenation P_1 P_2 ... P_K where |P_i| = σ_i and every element of P_i
// precedes every element of P_j (i < j) in the (Key, Aux) total order.
// Elements inside a partition stay unordered.
//
// The algorithm is the distribution strategy of Aggarwal and Vitter [1],
// costing O((N/B) lg_{M/B} min{K, N/B}) I/Os: each level samples pivots,
// streams the current chunk into Theta(M/B) buckets, routes the surviving
// boundary ranks to their buckets, and recurses; chunks whose rank interval
// contains no boundary are emitted verbatim, which is what makes the cost
// scale with lg K instead of lg N (a chunk stops paying once it is entirely
// inside one target partition).
//
// Boundary ranks live in a scratch file, not in memory, so K may exceed M.
// Pivots are drawn by reservoir sampling with verification-free graceful
// degradation: a skewed sample only deepens the recursion locally, never
// breaks correctness (every pivot lands in its own bucket, so progress is
// guaranteed).
package mpart

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/inmem"
)

// oversample is the number of sample points drawn per pivot.
const oversample = 32

// Partition divides f into partitions of the given sizes, respecting the
// order, and returns them concatenated in a new file. sizes must be
// nonnegative and sum to f.Len(). The input file is unchanged.
func Partition(ctx *emio.Ctx, f *emio.File, sizes []int64) (*emio.File, error) {
	sp := ctx.StartSpan("mpart/partition",
		emio.AttrInt("n", f.Len()), emio.AttrInt("k", int64(len(sizes))))
	defer sp.End()
	if err := sizesValid(f.Len(), sizes); err != nil {
		return nil, err
	}
	bnd, err := boundaryFile(ctx, sizes)
	if err != nil {
		return nil, err
	}
	out := ctx.Scratch("mpart")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		bnd.Release()
		return nil, err
	}
	if err := distribute(ctx, f, false, bnd, w); err != nil {
		w.Close()
		out.Release()
		return nil, err
	}
	if err := w.Close(); err != nil {
		out.Release()
		return nil, err
	}
	if out.Len() != f.Len() {
		out.Release()
		return nil, fmt.Errorf("mpart: emitted %d of %d elements", out.Len(), f.Len())
	}
	return out, nil
}

// sizesValid checks a multi-partition size prescription against an input of
// n elements: every σ_i must be nonnegative and they must sum to n.
func sizesValid(n int64, sizes []int64) error {
	var sum int64
	for i, s := range sizes {
		if s < 0 {
			return fmt.Errorf("mpart: negative size σ_%d = %d", i+1, s)
		}
		sum += s
	}
	if sum != n {
		return fmt.Errorf("mpart: sizes sum to %d, file holds %d", sum, n)
	}
	return nil
}

// PartitionAtRanks is Partition with cut positions instead of sizes: ranks
// must be strictly increasing within (0, n). It yields len(ranks)+1
// partitions.
func PartitionAtRanks(ctx *emio.Ctx, f *emio.File, ranks []int64) (*emio.File, error) {
	sizes := make([]int64, 0, len(ranks)+1)
	prev := int64(0)
	for i, r := range ranks {
		if r <= prev || r >= f.Len() {
			return nil, fmt.Errorf("mpart: rank %d at position %d not strictly inside (0,%d)", r, i, f.Len())
		}
		sizes = append(sizes, r-prev)
		prev = r
	}
	sizes = append(sizes, f.Len()-prev)
	return Partition(ctx, f, sizes)
}

// boundaryFile writes the distinct cumulative boundary ranks (excluding 0 and
// n) to a scratch file in ascending order. Zero-sized partitions contribute
// no boundary; they are implicit empty segments of the output.
func boundaryFile(ctx *emio.Ctx, sizes []int64) (*emio.File, error) {
	f := ctx.Scratch("bnd")
	w, err := emio.NewWriter(ctx, f)
	if err != nil {
		return nil, err
	}
	cum, prev := int64(0), int64(0)
	for i := 0; i < len(sizes)-1; i++ {
		cum += sizes[i]
		if cum != prev {
			w.Append(emio.Elem{Key: cum})
			prev = cum
		}
	}
	if err := w.Close(); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// distribute emits chunk onto w partitioned at the boundary ranks in bnd
// (ranks relative to the chunk, strictly inside it, ascending). It consumes
// bnd and, when owned, chunk.
func distribute(ctx *emio.Ctx, chunk *emio.File, owned bool, bnd *emio.File, w *emio.Writer) error {
	defer func() {
		bnd.Release()
		if owned {
			chunk.Release()
		}
	}()
	// No boundary: the chunk lies entirely inside one target partition.
	if bnd.Len() == 0 {
		return streamOut(ctx, chunk, w)
	}
	// Base case: finish in memory (a sorted chunk satisfies any boundaries).
	if chunk.Len() <= int64(ctx.M()/3) {
		buf, err := emio.LoadAll(ctx, chunk)
		if err != nil {
			return err
		}
		inmem.Sort(buf)
		for _, e := range buf {
			w.Append(e)
		}
		ctx.FreeElems(buf)
		return w.Err()
	}

	// One span per distribution level; recursion into the buckets nests
	// below, so span-tree depth equals the recursion depth (the quantity
	// Theorem 4's lg_{M/B} factor bounds).
	dsp := ctx.StartSpan("mpart/distribute",
		emio.AttrInt("n", chunk.Len()), emio.AttrInt("bnd", bnd.Len()))
	defer dsp.End()
	psp := ctx.StartSpan("mpart/sample")
	pivots, err := samplePivots(ctx, chunk)
	psp.End()
	if err != nil {
		return err
	}
	ssp := ctx.StartSpan("mpart/scatter", emio.AttrInt("fan", int64(len(pivots)+1)))
	buckets, counts, err := scatter(ctx, chunk, pivots)
	ssp.End()
	ctx.FreeElems(pivots)
	if err != nil {
		return err
	}
	releaseRest := func(from int) {
		for _, b := range buckets[from:] {
			if b != nil {
				b.Release()
			}
		}
	}
	rsp := ctx.StartSpan("mpart/route")
	subBnds, err := routeBoundaries(ctx, bnd, counts)
	rsp.End()
	if err != nil {
		releaseRest(0)
		return err
	}
	for j := range buckets {
		if err := distribute(ctx, buckets[j], true, subBnds[j], w); err != nil {
			for _, sb := range subBnds[j+1:] {
				sb.Release()
			}
			releaseRest(j + 1)
			return err
		}
		buckets[j] = nil
	}
	return nil
}

// streamOut appends every element of chunk to w.
func streamOut(ctx *emio.Ctx, chunk *emio.File, w *emio.Writer) error {
	r, err := emio.NewReader(ctx, chunk)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		w.Append(e)
	}
	if err := r.Err(); err != nil {
		return err
	}
	return w.Err()
}

// fanOut picks the distribution width f: the scatter phase holds f writer
// buffers, one reader buffer, the top-level output buffer, the pivot array
// and the counters, so f*B + 3B + 2f <= M.
func fanOut(ctx *emio.Ctx) int {
	f := (ctx.M() - 3*ctx.B()) / (ctx.B() + 2)
	if f < 2 {
		f = 2
	}
	return f
}

// samplePivots draws a reservoir sample of the chunk and keeps f-1
// equi-spaced elements as pivots (ascending, distinct records). The returned
// slice is charged; free with ctx.FreeElems.
func samplePivots(ctx *emio.Ctx, chunk *emio.File) ([]emio.Elem, error) {
	f := fanOut(ctx)
	rcap := f * oversample
	if rcap > ctx.M()/2 {
		rcap = ctx.M() / 2
	}
	if int64(rcap) > chunk.Len() {
		rcap = int(chunk.Len())
	}
	res, err := ctx.AllocElems(rcap)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, chunk)
	if err != nil {
		ctx.FreeElems(res)
		return nil, err
	}
	rng := ctx.Rng()
	seen := int64(0)
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		if seen < int64(rcap) {
			res[seen] = e
		} else if j := rng.Int64N(seen + 1); j < int64(rcap) {
			res[j] = e
		}
		seen++
	}
	if err := r.Err(); err != nil {
		r.Close()
		ctx.FreeElems(res)
		return nil, err
	}
	r.Close()
	inmem.Sort(res)
	np := f - 1
	if np > len(res) {
		np = len(res)
	}
	pivots, err := ctx.AllocElems(np)
	if err != nil {
		ctx.FreeElems(res)
		return nil, err
	}
	k := 0
	for i := 1; i <= np; i++ {
		cand := res[i*len(res)/(np+1)]
		if k == 0 || emio.Less(pivots[k-1], cand) { // skip duplicate picks
			pivots[k] = cand
			k++
		}
	}
	ctx.FreeElems(res)
	if k < np {
		// Shrink the charge to the distinct pivots actually kept.
		trimmed, err := ctx.AllocElems(k)
		if err != nil {
			ctx.FreeElems(pivots)
			return nil, err
		}
		copy(trimmed, pivots[:k])
		ctx.FreeElems(pivots)
		return trimmed, nil
	}
	return pivots, nil
}

// scatter streams the chunk into len(pivots)+1 bucket files (bucket j is the
// interval (pivots[j-1], pivots[j]] of the total order) and returns the
// buckets with their sizes.
func scatter(ctx *emio.Ctx, chunk *emio.File, pivots []emio.Elem) ([]*emio.File, []int64, error) {
	nb := len(pivots) + 1
	buckets := make([]*emio.File, nb)
	writers := make([]*emio.Writer, nb)
	counts := make([]int64, nb)
	cleanup := func() {
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
		for _, b := range buckets {
			if b != nil {
				b.Release()
			}
		}
	}
	if err := ctx.Mem().Charge(int64(nb)); err != nil { // counters
		return nil, nil, err
	}
	defer ctx.Mem().Credit(int64(nb))
	for j := 0; j < nb; j++ {
		buckets[j] = ctx.Scratch("bucket")
		w, err := emio.NewWriter(ctx, buckets[j])
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		writers[j] = w
	}
	r, err := emio.NewReader(ctx, chunk)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	var idx [emio.Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), emio.Lanes)]
			c = c[len(batch):]
			emio.Classify(pivots, batch, idx[:])
			for i, e := range batch {
				writers[idx[i]].Append(e)
				counts[idx[i]]++
			}
		}
	}
	rerr := r.Err()
	r.Close()
	for j, w := range writers {
		if err := w.Close(); err != nil && rerr == nil {
			rerr = err
		}
		writers[j] = nil
	}
	if rerr != nil {
		cleanup()
		return nil, nil, rerr
	}
	return buckets, counts, nil
}

// routeBoundaries splits the ascending boundary-rank file into one file per
// bucket, rebasing each rank against its bucket's start. Ranks that coincide
// with a bucket edge are already satisfied by emission order and are dropped.
// Because the input is ascending, a single output writer is open at a time.
// Consumes bnd.
func routeBoundaries(ctx *emio.Ctx, bnd *emio.File, counts []int64) ([]*emio.File, error) {
	out := make([]*emio.File, len(counts))
	for j := range out {
		out[j] = ctx.Scratch("subbnd")
	}
	release := func() {
		for _, f := range out {
			f.Release()
		}
	}
	r, err := emio.NewReader(ctx, bnd)
	if err != nil {
		release()
		return nil, err
	}
	j, start := 0, int64(0) // current bucket and its starting rank
	var w *emio.Writer
	closeW := func() error {
		if w == nil {
			return nil
		}
		err := w.Close()
		w = nil
		return err
	}
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		rank := e.Key
		for rank > start+counts[j] {
			if err := closeW(); err != nil {
				r.Close()
				release()
				return nil, err
			}
			start += counts[j]
			j++
		}
		if rank == start+counts[j] {
			continue // aligns with a bucket edge
		}
		if w == nil {
			nw, err := emio.NewWriter(ctx, out[j])
			if err != nil {
				r.Close()
				release()
				return nil, err
			}
			w = nw
		}
		w.Append(emio.Elem{Key: rank - start})
	}
	rerr := r.Err()
	r.Close()
	if err := closeW(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr != nil {
		release()
		return nil, rerr
	}
	return out, nil
}
