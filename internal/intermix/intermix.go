// Package intermix implements the L-intermixed selection algorithm of paper
// §4.1, the key new primitive behind the optimal multi-selection result
// (Theorem 4).
//
// The input is a file D of elements, each tagged with a group id g in [0, L),
// and a target rank t[g] for every group. The output is, for every group, the
// element with the t[g]-th smallest key among that group's elements. The
// algorithm runs L concurrent threads of BFPRT median-of-medians selection
// using only O(1) words of state per thread, so that L can be as large as a
// constant fraction of memory: Lemma 6 gives a total cost of O(|D|/B) I/Os.
//
// Each recursion level performs three scans of the current instance:
//
//  1. Subgroup medians: the elements of every group are chopped into
//     subgroups of five as they stream by (a five-slot buffer per group), and
//     each subgroup's median is appended to Σ. The medians of Σ's groups —
//     computed by recursing on Σ — give an approximate median µ_g per group.
//  2. Rank scan: one pass counts θ[g], the rank of µ_g within group g.
//  3. Prune: one pass writes the next instance D′, keeping per group only the
//     half that still contains the target, with targets adjusted; per group
//     at most 7/10·|D_g| + 3 elements survive.
//
// Group ids and per-group sequence numbers are packed into the element's Aux
// word with emio.PackAux, so the (Key, Aux) total order coincides with the
// within-group order (Key, seq) and duplicate keys need no special handling.
// Callers must make (Key, seq) unique within each group (multi-selection uses
// the element's position in the original set as seq).
package intermix

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/emio"
	"repro/internal/inmem"
)

// groupDivisor is the paper's constant: intermixed selection admits up to
// m = cM groups with c = 1/240, the value for which the recurrence
// |Σ| + |D′| <= (9/10 + 12c)|D| <= (19/20)|D| of Lemma 6 goes through.
const groupDivisor = 240

// MaxGroups returns m, the largest number of groups a single intermixed
// selection instance may carry under configuration cfg: floor(M/240).
func MaxGroups(cfg emio.Config) int {
	return cfg.M / groupDivisor
}

// Select solves the L-intermixed selection problem on d: for each group g in
// [0, L), it returns the element whose key is the targets[g]-th smallest in
// group g. Results are indexed by group; free them with ctx.FreeElems. The
// input file is not modified; targets is not modified.
//
// Requirements: 1 <= L <= MaxGroups(cfg); every element's Aux is
// emio.PackAux(g, seq) with g in [0, L); every group is nonempty; and
// 1 <= targets[g] <= |D_g|. Violations are reported as errors after a single
// validation scan.
func Select(ctx *emio.Ctx, d *emio.File, L int, targets []int64) ([]emio.Elem, error) {
	if L < 1 || L > MaxGroups(ctx.Config()) {
		return nil, fmt.Errorf("intermix: L=%d out of [1,%d] for %v", L, MaxGroups(ctx.Config()), ctx.Config())
	}
	if len(targets) != L {
		return nil, fmt.Errorf("intermix: %d targets for L=%d groups", len(targets), L)
	}
	if err := validate(ctx, d, L, targets); err != nil {
		return nil, err
	}
	sp := ctx.StartSpan("intermix/select", emio.AttrInt("d", d.Len()), emio.AttrInt("L", int64(L)))
	defer sp.End()
	t, err := ctx.AllocInts(L)
	if err != nil {
		return nil, err
	}
	copy(t, targets)
	return sel(ctx, d, false, L, t)
}

// validate checks group ids and target ranks in one counting scan.
func validate(ctx *emio.Ctx, d *emio.File, L int, targets []int64) error {
	sizes, err := ctx.AllocInts(L)
	if err != nil {
		return err
	}
	defer ctx.FreeInts(sizes)
	r, err := emio.NewReader(ctx, d)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		g := emio.UnpackGroup(e.Aux)
		if g < 0 || g >= int64(L) {
			return fmt.Errorf("intermix: element %v carries group %d, want [0,%d)", e, g, L)
		}
		sizes[g]++
	}
	if err := r.Err(); err != nil {
		return err
	}
	for g, tg := range targets {
		if tg < 1 || tg > sizes[g] {
			return fmt.Errorf("intermix: target %d for group %d of size %d", tg, g, sizes[g])
		}
	}
	return nil
}

// sel is the recursive core. It takes ownership of the working target array t
// (always freed) and of cur when owned (released before returning). The
// recursion on Σ is a true recursive call; the recursion on D′ is the loop.
func sel(ctx *emio.Ctx, cur *emio.File, owned bool, L int, t []int64) (result []emio.Elem, err error) {
	defer func() {
		if t != nil {
			ctx.FreeInts(t)
		}
		if owned && cur != nil {
			cur.Release()
		}
	}()
	for {
		if cur.Len() <= int64(ctx.M()/3) {
			return solveInMemory(ctx, cur, L, t)
		}
		lsp := ctx.StartSpan("intermix/level", emio.AttrInt("d", cur.Len()))

		// Phase 1: subgroup medians -> Σ, counting |Σ_g|.
		sigma, sigSizes, err := subgroupMedians(ctx, cur, L)
		if err != nil {
			return nil, err
		}

		// Phase 2: medians of Σ's groups, by recursion. The parent's target
		// array is spilled to disk for the duration so that the live memory
		// of the Σ-recursion chain stays O(L) rather than O(L * depth).
		tSigma, err := ctx.AllocInts(L)
		if err != nil {
			sigma.Release()
			return nil, err
		}
		for g := 0; g < L; g++ {
			tSigma[g] = (sigSizes[g] + 1) / 2
		}
		ctx.FreeInts(sigSizes)
		tSpill, err := spillInts(ctx, t)
		if err != nil {
			ctx.FreeInts(tSigma)
			sigma.Release()
			return nil, err
		}
		ctx.FreeInts(t)
		t = nil
		mu, err := sel(ctx, sigma, true, L, tSigma) // consumes sigma and tSigma
		if err != nil {
			tSpill.Release()
			return nil, err
		}
		t, err = unspillInts(ctx, tSpill, L)
		tSpill.Release()
		if err != nil {
			ctx.FreeElems(mu)
			return nil, err
		}

		// Phase 3: rank of µ_g within group g.
		theta, err := rankScan(ctx, cur, L, mu)
		if err != nil {
			ctx.FreeElems(mu)
			return nil, err
		}

		// Phase 4: prune to D′ and adjust targets.
		next, err := prune(ctx, cur, L, mu, theta, t)
		ctx.FreeElems(mu)
		ctx.FreeInts(theta)
		if err != nil {
			return nil, err
		}
		// Lemma 6 guarantees |D′| <= (7/10 + 3/80)|D| whenever |D| > M/3;
		// anything else indicates a corrupted instance, so fail loudly
		// rather than loop.
		if next.Len() >= cur.Len() {
			next.Release()
			return nil, fmt.Errorf("intermix: no progress (%d -> %d elements)", cur.Len(), next.Len())
		}
		if owned {
			cur.Release()
		}
		cur, owned = next, true
		lsp.End()
	}
}

// solveInMemory finishes an instance that fits in M/3 memory: load, sort by
// (group, key, seq), and read each group's target off the sorted order.
func solveInMemory(ctx *emio.Ctx, cur *emio.File, L int, t []int64) ([]emio.Elem, error) {
	buf, err := emio.LoadAll(ctx, cur)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeElems(buf)
	slices.SortFunc(buf, func(a, b emio.Elem) int {
		if c := cmp.Compare(emio.UnpackGroup(a.Aux), emio.UnpackGroup(b.Aux)); c != 0 {
			return c
		}
		return emio.Compare(a, b)
	})
	out, err := ctx.AllocElems(L)
	if err != nil {
		return nil, err
	}
	lo := 0
	for lo < len(buf) {
		g := emio.UnpackGroup(buf[lo].Aux)
		hi := lo
		for hi < len(buf) && emio.UnpackGroup(buf[hi].Aux) == g {
			hi++
		}
		tg := t[g]
		if tg < 1 || tg > int64(hi-lo) {
			ctx.FreeElems(out)
			return nil, fmt.Errorf("intermix: internal target %d for group %d of size %d", tg, g, hi-lo)
		}
		out[g] = buf[lo+int(tg)-1]
		lo = hi
	}
	return out, nil
}

// subgroupMedians streams cur once, chopping every group into subgroups of at
// most five elements and appending each subgroup's median to a fresh Σ file.
// It returns Σ and the per-group median counts (an AllocInts array the caller
// frees). Memory: 5L elements of subgroup slots + L fill counters + L sizes.
func subgroupMedians(ctx *emio.Ctx, cur *emio.File, L int) (*emio.File, []int64, error) {
	slots, err := ctx.AllocElems(5 * L)
	if err != nil {
		return nil, nil, err
	}
	defer ctx.FreeElems(slots)
	fill, err := ctx.AllocInts(L)
	if err != nil {
		return nil, nil, err
	}
	defer ctx.FreeInts(fill)
	sizes, err := ctx.AllocInts(L)
	if err != nil {
		return nil, nil, err
	}
	sigma, err := emio.WriteScratch(ctx, "sigma", func(w *emio.Writer) error {
		r, err := emio.NewReader(ctx, cur)
		if err != nil {
			return err
		}
		emit := func(g int64) {
			k := fill[g]
			med := inmem.MedianOfFive(slots[5*g : 5*g+k])
			w.Append(med)
			sizes[g]++
			fill[g] = 0
		}
		for {
			e, ok := r.Next()
			if !ok {
				break
			}
			g := emio.UnpackGroup(e.Aux)
			slots[5*g+fill[g]] = e
			fill[g]++
			if fill[g] == 5 {
				emit(g)
			}
		}
		err = r.Err()
		r.Close()
		if err != nil {
			return err
		}
		for g := int64(0); g < int64(L); g++ {
			if fill[g] > 0 {
				emit(g)
			}
		}
		return nil
	})
	if err != nil {
		ctx.FreeInts(sizes)
		return nil, nil, err
	}
	return sigma, sizes, nil
}

// rankScan returns θ with θ[g] = |{e in D_g : e <= µ_g}| in one scan.
func rankScan(ctx *emio.Ctx, cur *emio.File, L int, mu []emio.Elem) ([]int64, error) {
	theta, err := ctx.AllocInts(L)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, cur)
	if err != nil {
		ctx.FreeInts(theta)
		return nil, err
	}
	defer r.Close()
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		g := emio.UnpackGroup(e.Aux)
		if !emio.Less(mu[g], e) { // e <= µ_g
			theta[g]++
		}
	}
	if err := r.Err(); err != nil {
		ctx.FreeInts(theta)
		return nil, err
	}
	return theta, nil
}

// prune writes the next instance: per group, if the target lies at or below
// θ[g] keep the elements <= µ_g, else keep the elements > µ_g and shift the
// target by θ[g]. Targets are updated in place.
func prune(ctx *emio.Ctx, cur *emio.File, L int, mu []emio.Elem, theta, t []int64) (*emio.File, error) {
	next, err := emio.WriteScratch(ctx, "dprime", func(w *emio.Writer) error {
		r, err := emio.NewReader(ctx, cur)
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			e, ok := r.Next()
			if !ok {
				break
			}
			g := emio.UnpackGroup(e.Aux)
			lowSide := !emio.Less(mu[g], e) // e <= µ_g
			if (t[g] <= theta[g]) == lowSide {
				w.Append(e)
			}
		}
		return r.Err()
	})
	if err != nil {
		return nil, err
	}
	for g := 0; g < L; g++ {
		if t[g] > theta[g] {
			t[g] -= theta[g]
		}
	}
	return next, nil
}

// spillInts writes an int64 array to a scratch file (one int per element's
// Key) so it survives a recursive call without occupying memory.
func spillInts(ctx *emio.Ctx, v []int64) (*emio.File, error) {
	return emio.WriteScratch(ctx, "spill", func(w *emio.Writer) error {
		for i, x := range v {
			w.Append(emio.Elem{Key: x, Aux: int64(i)})
		}
		return nil
	})
}

// unspillInts reloads an array written by spillInts into a fresh AllocInts
// buffer.
func unspillInts(ctx *emio.Ctx, f *emio.File, n int) ([]int64, error) {
	v, err := ctx.AllocInts(n)
	if err != nil {
		return nil, err
	}
	r, err := emio.NewReader(ctx, f)
	if err != nil {
		ctx.FreeInts(v)
		return nil, err
	}
	defer r.Close()
	i := 0
	for {
		e, ok := r.Next()
		if !ok {
			break
		}
		if i >= n {
			ctx.FreeInts(v)
			return nil, fmt.Errorf("intermix: spill file holds more than %d entries", n)
		}
		v[i] = e.Key
		i++
	}
	if err := r.Err(); err != nil {
		ctx.FreeInts(v)
		return nil, err
	}
	if i != n {
		ctx.FreeInts(v)
		return nil, fmt.Errorf("intermix: spill file holds %d of %d entries", i, n)
	}
	return v, nil
}
