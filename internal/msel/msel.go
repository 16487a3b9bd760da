// Package msel implements multi-selection — report the elements of K
// prescribed ranks — in O((N/B) lg_{M/B}(K/B)) I/Os: Theorem 4, the paper's
// main algorithmic contribution. The bound is optimal and, for small K,
// strictly better than the Θ((N/B) lg_{M/B} K) complexity of multi-partition,
// which is the separation the paper highlights.
//
// Structure (paper §4.2):
//
//   - Base case K <= m = Θ(M): find Θ(M) approximate splitters of S in linear
//     I/Os (package approxsplit, standing in for Hu et al. [6]), count the
//     buckets in one scan, and translate the K rank queries into one
//     K-intermixed selection instance D: each query becomes a group holding a
//     copy of its target bucket, with the rank rebased to the bucket. Since
//     buckets hold Θ(N/M) elements and K = O(M), |D| = O(N), and package
//     intermix solves the instance in O(N/B) I/Os.
//
//   - General case K > m: multi-partition S at the ranks r_m, r_2m, ... into
//     g = ceil(K/m) chunks — O((N/B) lg_{M/B}(K/B)) I/Os — then run the base
//     case on each chunk with at most m rebased queries, O(N/B) altogether.
//
// On configurations too small to host the machinery (M < 240, where the
// intermixed-selection group bound vanishes) the package falls back to one
// exact selection per rank, which is the right tool at that scale anyway.
package msel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/approxsplit"
	"repro/internal/emio"
	"repro/internal/emsel"
	"repro/internal/inmem"
	"repro/internal/intermix"
	"repro/internal/mpart"
)

// bucketsPerQuery fixes the splitter resolution of the base case: with
// G = bucketsPerQuery*K buckets (capped by approxsplit.MaxBuckets) and the
// verified bucket bound of 8N/G, the intermixed instance D holds at most
// K * 8N/G = N/5 elements.
const bucketsPerQuery = 40

// Select returns the elements of the given ranks in f, written to a fresh
// file in the same order as ranks (the i-th output element has rank ranks[i]
// in f under the (Key, Aux) total order). ranks must be nondecreasing and lie
// in [1, f.Len()]. The input file is unchanged.
func Select(ctx *emio.Ctx, f *emio.File, ranks []int64) (*emio.File, error) {
	sp := ctx.StartSpan("msel/select",
		emio.AttrInt("n", f.Len()), emio.AttrInt("k", int64(len(ranks))))
	defer sp.End()
	n := f.Len()
	if len(ranks) == 0 {
		return ctx.Scratch("msel"), nil
	}
	prev := int64(0)
	for i, r := range ranks {
		if r < 1 || r > n {
			return nil, fmt.Errorf("msel: rank %d at position %d out of [1,%d]", r, i, n)
		}
		if r < prev {
			return nil, fmt.Errorf("msel: ranks not nondecreasing at position %d", i)
		}
		prev = r
	}

	m := intermix.MaxGroups(ctx.Config())
	if m < 1 || len(ranks) == 1 {
		// Degenerate configuration, or a single rank — plain exact selection
		// is both simpler and cheaper than the base-case machinery.
		return fallbackPerRank(ctx, f, ranks)
	}
	out := ctx.Scratch("msel")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	if len(ranks) <= m {
		// A single base case: no writer may be held across it (inner
		// algorithms are entitled to nearly all of M), so collect the
		// answers first. They are at most m = M/240 elements.
		var answers []emio.Elem
		answers, err = baseCase(ctx, f, ranks)
		if err == nil {
			for _, e := range answers {
				w.Append(e)
			}
			ctx.FreeElems(answers)
			err = w.Err()
		}
	} else {
		err = generalCase(ctx, f, ranks, m, w)
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

// SelectInMemory is Select for small K: it returns the results as a charged
// slice (free with ctx.FreeElems) instead of a file.
func SelectInMemory(ctx *emio.Ctx, f *emio.File, ranks []int64) ([]emio.Elem, error) {
	resFile, err := Select(ctx, f, ranks)
	if err != nil {
		return nil, err
	}
	res, err := emio.LoadAll(ctx, resFile)
	resFile.Release()
	return res, err
}

// fallbackPerRank answers each query with an exact O(N/B) selection: the
// degenerate-configuration path (M < 240).
func fallbackPerRank(ctx *emio.Ctx, f *emio.File, ranks []int64) (*emio.File, error) {
	sp := ctx.StartSpan("msel/fallback", emio.AttrInt("k", int64(len(ranks))))
	defer sp.End()
	out := ctx.Scratch("msel")
	w, err := emio.NewWriter(ctx, out)
	if err != nil {
		return nil, err
	}
	for _, r := range ranks {
		e, err := emsel.Select(ctx, f, r)
		if err != nil {
			w.Close()
			out.Release()
			return nil, err
		}
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// generalCase multi-partitions f at ranks r_m, r_2m, ... and solves a base
// case per chunk. Results stream to w in rank order because both the chunks
// and the queries are processed in ascending order.
func generalCase(ctx *emio.Ctx, f *emio.File, ranks []int64, m int, w *emio.Writer) error {
	sp := ctx.StartSpan("msel/general",
		emio.AttrInt("n", f.Len()), emio.AttrInt("k", int64(len(ranks))), emio.AttrInt("m", int64(m)))
	defer sp.End()
	n := f.Len()
	// Cut positions: every m-th requested rank, deduplicated, strictly
	// inside (0, n).
	var cuts []int64
	for i := m; i < len(ranks); i += m {
		c := ranks[i-1]
		if c < n && (len(cuts) == 0 || c > cuts[len(cuts)-1]) {
			cuts = append(cuts, c)
		}
	}
	sizes := make([]int64, 0, len(cuts)+1)
	prev := int64(0)
	for _, c := range cuts {
		sizes = append(sizes, c-prev)
		prev = c
	}
	sizes = append(sizes, n-prev)

	part, err := mpart.Partition(ctx, f, sizes)
	if err != nil {
		return err
	}
	chunks, err := emio.SplitFile(ctx, part, sizes)
	part.Release()
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range chunks {
			if c != nil && !c.Released() {
				c.Release()
			}
		}
	}()

	// Route each query to its chunk: chunk j covers global ranks
	// (start_j, start_j + sizes_j]. Queries are sorted, so the routing is a
	// single forward walk.
	q := 0
	start := int64(0)
	for j, sz := range sizes {
		var local []int64
		for q < len(ranks) && ranks[q] <= start+sz {
			local = append(local, ranks[q]-start)
			q++
		}
		if len(local) > 0 {
			answers, err := baseCase(ctx, chunks[j], local)
			if err != nil {
				return err
			}
			for _, e := range answers {
				w.Append(e)
			}
			ctx.FreeElems(answers)
			if err := w.Err(); err != nil {
				return err
			}
		}
		chunks[j].Release()
		start += sz
	}
	if q != len(ranks) {
		return fmt.Errorf("msel: routed %d of %d queries", q, len(ranks))
	}
	return nil
}

// baseCase answers at most m nondecreasing rank queries against chunk in
// O(|chunk|/B) I/Os, returning the answers in query order as a charged slice
// (free with ctx.FreeElems). No stream buffers are held across the calls into
// approxsplit and intermix, which are entitled to nearly all of M.
func baseCase(ctx *emio.Ctx, chunk *emio.File, ranks []int64) ([]emio.Elem, error) {
	n := chunk.Len()
	k := len(ranks)
	if n <= int64(ctx.M()/3) {
		return baseCaseInMemory(ctx, chunk, ranks)
	}
	sp := ctx.StartSpan("msel/base-case", emio.AttrInt("n", n), emio.AttrInt("k", int64(k)))
	defer sp.End()

	g := bucketsPerQuery * k
	if maxG := approxsplit.MaxBuckets(ctx.Config()); g > maxG {
		g = maxG
	}
	// n > M/3 >= 2*MaxBuckets here, so g <= n always holds.
	res, err := approxsplit.Splitters(ctx, chunk, g)
	if err != nil {
		return nil, err
	}
	defer res.Close()

	// Bucket of each query and its rebased rank.
	targets, err := ctx.AllocInts(k)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeInts(targets)
	qBucket, err := ctx.AllocInts(k)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeInts(qBucket)
	{
		j := 0
		prefix := int64(0) // elements before bucket j
		for i, r := range ranks {
			for r > prefix+res.BucketSizes[j] {
				prefix += res.BucketSizes[j]
				j++
			}
			qBucket[i] = int64(j)
			targets[i] = r - prefix
		}
	}

	// Build the intermixed instance: group i receives a copy of bucket
	// qBucket[i], keyed by the element key with Aux packed as (group, seq)
	// where seq is the element's position in the chunk.
	bsp := ctx.StartSpan("msel/build-instance")
	d := ctx.Scratch("mselD")
	dw, err := emio.NewWriter(ctx, d)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, chunk)
	if err != nil {
		dw.Close()
		d.Release()
		return nil, err
	}
	seq := int64(0)
	var idx [emio.Lanes]int
	for c := r.Chunk(); len(c) > 0; c = r.Chunk() {
		for len(c) > 0 {
			batch := c[:min(len(c), emio.Lanes)]
			c = c[len(batch):]
			emio.Classify(res.Splitters, batch, idx[:])
			for li, e := range batch {
				b := int64(idx[li])
				// Queries are sorted by rank, hence by bucket: binary
				// search the contiguous run of queries targeting bucket b.
				lo, _ := slices.BinarySearch(qBucket, b)
				for i := lo; i < k && qBucket[i] == b; i++ {
					dw.Append(emio.Elem{Key: e.Key, Aux: emio.PackAux(int64(i), seq)})
				}
				seq++
			}
		}
	}
	rerr := r.Err()
	r.Close()
	if err := dw.Close(); err != nil && rerr == nil {
		rerr = err
	}
	bsp.SetAttr("d", d.Len())
	bsp.End()
	if rerr != nil {
		d.Release()
		return nil, rerr
	}
	res.Close() // splitters and bucket sizes are no longer needed

	picked, err := intermix.Select(ctx, d, k, targets)
	d.Release()
	if err != nil {
		return nil, err
	}

	// Map the picked (Key, group, seq) records back to the original chunk
	// elements by position, then emit in query order.
	bySeq := make([]int, k) // query indices ordered by their answer's seq
	if err := ctx.Mem().Charge(int64(k)); err != nil {
		ctx.FreeElems(picked)
		return nil, err
	}
	defer ctx.Mem().Credit(int64(k))
	for i := range bySeq {
		bySeq[i] = i
	}
	slices.SortFunc(bySeq, func(a, b int) int {
		return cmp.Or(cmp.Compare(emio.UnpackSeq(picked[a].Aux), emio.UnpackSeq(picked[b].Aux)), cmp.Compare(a, b))
	})
	answers, err := ctx.AllocElems(k)
	if err != nil {
		ctx.FreeElems(picked)
		return nil, err
	}
	r2, err := emio.NewReader(ctx, chunk)
	if err != nil {
		ctx.FreeElems(picked)
		ctx.FreeElems(answers)
		return nil, err
	}
	pos, pi := int64(0), 0
	for pi < k {
		e, ok := r2.Next()
		if !ok {
			break
		}
		for pi < k && emio.UnpackSeq(picked[bySeq[pi]].Aux) == pos {
			answers[bySeq[pi]] = e
			pi++
		}
		pos++
	}
	rerr = r2.Err()
	r2.Close()
	ctx.FreeElems(picked)
	if rerr != nil {
		ctx.FreeElems(answers)
		return nil, rerr
	}
	if pi != k {
		ctx.FreeElems(answers)
		return nil, fmt.Errorf("msel: recovered %d of %d answers", pi, k)
	}
	return answers, nil
}

// baseCaseInMemory loads a small chunk and answers all queries by in-memory
// sorting, returning a charged answer slice.
func baseCaseInMemory(ctx *emio.Ctx, chunk *emio.File, ranks []int64) ([]emio.Elem, error) {
	buf, err := emio.LoadAll(ctx, chunk)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeElems(buf)
	inmem.Sort(buf)
	answers, err := ctx.AllocElems(len(ranks))
	if err != nil {
		return nil, err
	}
	for i, r := range ranks {
		answers[i] = buf[r-1]
	}
	return answers, nil
}
