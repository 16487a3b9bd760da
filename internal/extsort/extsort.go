// Package extsort implements external merge sort, the
// O((N/B) lg_{M/B}(N/B))-I/O sorting algorithm of Aggarwal and Vitter that
// serves as the baseline against which every specialised algorithm in the
// paper is compared (sorting trivially solves all six Table-1 problems), and
// as the oracle inside verifiers.
//
// Phase one forms sorted runs of about M elements by repeated in-memory
// sorting; phase two merges runs with the largest fan-in that leaves room for
// one input buffer per run, one output buffer, and the tournament tree.
package extsort

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/inmem"
	"repro/internal/mmheap"
)

// Sort returns a new file holding the elements of in sorted by (Key, Aux).
// The input file is left untouched. The cost is (2N/B)(1 + ceil(lg_f(N/M)))
// I/Os where f is the merge fan-in, i.e. Theta((N/B) lg_{M/B}(N/B)).
//
// Sorting needs room to merge: M must accommodate at least two input buffers
// plus an output buffer and the tournament state, so configurations tighter
// than roughly M >= 3B fail with emio.ErrMemoryBudget.
func Sort(ctx *emio.Ctx, in *emio.File) (*emio.File, error) {
	sp := ctx.StartSpan("extsort/sort", emio.AttrInt("n", in.Len()))
	defer sp.End()
	runs, err := FormRuns(ctx, in)
	if err != nil {
		return nil, err
	}
	return MergeAll(ctx, runs)
}

// FormRuns splits in into sorted runs of up to (M/B - 2)*B elements each,
// costing one full read scan plus one full write scan. The returned files are
// owned by the caller (MergeAll consumes and releases them). Each run is
// sorted in memory on Config.Workers goroutines (inmem.ParallelSort), which
// changes neither the runs nor their I/O.
func FormRuns(ctx *emio.Ctx, in *emio.File) ([]*emio.File, error) {
	return formRuns(ctx, in, 0, nil)
}

// formRuns is the run-formation engine behind FormRuns and the checkpointed
// sort: it starts the input scan at block startBlk (resume skips the blocks
// already consumed by journaled runs), and calls onRun after each run file is
// fully written (the checkpoint layer journals a durable manifest there). On
// failure it releases every run it made, the one being written included.
func formRuns(ctx *emio.Ctx, in *emio.File, startBlk int, onRun func(run *emio.File) error) (runs []*emio.File, err error) {
	sp := ctx.StartSpan("extsort/form-runs", emio.AttrInt("n", in.Len()))
	var made []*emio.File
	defer func() {
		if err != nil {
			releaseAll(made)
		}
		sp.SetAttr("runs", int64(len(runs)))
		sp.End()
	}()
	b := ctx.B()
	runCap := runCapacity(ctx.M(), b)
	buf, err := ctx.AllocElems(runCap)
	if err != nil {
		return nil, err
	}
	defer ctx.FreeElems(buf)

	nb := in.NumBlocks()
	for blk := startBlk; blk < nb; {
		fill := 0
		for blk < nb && fill+b <= runCap {
			n, err := in.ReadBlockSequential(blk, buf[fill:fill+b])
			if err != nil {
				return nil, err
			}
			fill += n
			blk++
		}
		if fill == 0 {
			break
		}
		// The in-memory sort of an M-sized chunk is the longest I/O-free
		// stretch in the whole algorithm; poll cancellation before entering
		// it so a cancel never waits a full chunk sort.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := buf[:fill]
		inmem.ParallelSort(chunk, ctx.Config().Workers)
		run, err := emio.StoreAll(ctx, "run", chunk)
		if err != nil {
			return nil, err
		}
		made = append(made, run)
		if onRun != nil {
			if err := onRun(run); err != nil {
				return nil, err
			}
		}
	}
	return made, nil
}

// MergeAll repeatedly merges the given sorted runs with maximal fan-in until
// a single sorted file remains, releasing consumed runs as it goes. An empty
// run list yields an empty file.
func MergeAll(ctx *emio.Ctx, runs []*emio.File) (*emio.File, error) {
	return MergeAllWithFanIn(ctx, runs, 0)
}

// MergeAllWithFanIn is MergeAll with the fan-in capped at maxFan (0 or
// negative means the natural memory-derived fan-in). Capping below the
// natural value adds merge passes; it exists for the lg_{M/B}-factor ablation
// study, not for production use.
func MergeAllWithFanIn(ctx *emio.Ctx, runs []*emio.File, maxFan int) (*emio.File, error) {
	return mergePasses(ctx, runs, maxFan, 0, nil)
}

// mergePasses is the merge loop of Sort and of the checkpointed sort: it
// merges the runs at the fan-in MergeAllWithFanIn takes from maxFan, pass
// after pass, numbering the passes from pass, until one sorted file remains
// (an empty file for no runs). The loop owns the runs: on failure it
// releases every run and output it holds.
//
// Without a commit hook, each group's inputs are released as soon as the
// group is merged. Under a disk budget they are also read with consuming
// readers (each reclaimed block funds a block of merge output, dropping the
// peak from ~3N to ~2N plus the consume lag), and the fan shrinks until the
// transient unreclaimed window fits the remaining headroom. A narrower fan
// means more passes, still within O((N/B) lg_{M/B}(N/B)): the degradation
// trades time for footprint instead of failing.
//
// With a hook, a pass's inputs stay live until commit(pass, next) has made
// the pass's outputs durable, and are released only then. The hook sees the
// final output too (len(next) == 1), and is called once with the input
// itself when that is one run or none.
func mergePasses(ctx *emio.Ctx, runs []*emio.File, maxFan, pass int, commit func(pass int, next []*emio.File) error) (*emio.File, error) {
	fan := mergeFanIn(ctx.M(), ctx.B())
	if maxFan > 1 && maxFan < fan {
		fan = maxFan
	}
	if len(runs) == 0 {
		runs = []*emio.File{ctx.Scratch("sorted")}
	}
	if len(runs) == 1 && commit != nil {
		if err := commit(pass, runs); err != nil {
			runs[0].Release()
			return nil, err
		}
	}
	opt := mergeOpts{release: commit == nil}
	opt.consume = opt.release && ctx.Disk().DiskBudget() > 0
	for len(runs) > 1 {
		if err := ctx.Err(); err != nil {
			releaseAll(runs)
			return nil, err
		}
		if opt.consume {
			fan = degradeFanIn(ctx.Disk(), fan)
		}
		psp := ctx.StartSpan("extsort/merge-pass",
			emio.AttrInt("pass", int64(pass)), emio.AttrInt("runs", int64(len(runs))), emio.AttrInt("fan", int64(fan)))
		var next []*emio.File
		var err error
		for lo := 0; lo < len(runs) && err == nil; lo += fan {
			group := runs[lo:min(lo+fan, len(runs))]
			merged := group[0]
			if len(group) > 1 {
				merged, err = mergeGroup(ctx, group, opt)
			}
			if err == nil {
				next = append(next, merged)
			}
		}
		if err == nil && commit != nil {
			if err = commit(pass, next); err == nil {
				// Only the last group can be a single run, carried into next.
				for _, f := range runs {
					if f != next[len(next)-1] {
						f.Release()
					}
				}
			}
		}
		psp.End()
		if err != nil {
			releaseAll(runs)
			releaseAll(next)
			return nil, err
		}
		runs = next
		pass++
	}
	return runs[0], nil
}

// releaseAll releases every file of fs; released ones are skipped.
func releaseAll(fs []*emio.File) {
	for _, f := range fs {
		f.Release()
	}
}

// degradeFanIn shrinks the merge fan-in until the transient footprint of a
// consuming merge — fan·(ConsumeLag+1) unreclaimed input blocks plus one
// output buffer — fits the disk budget's remaining headroom, never below 2.
// If even a binary merge does not fit, the merge runs anyway and surfaces
// the budget's *ResourceError at the first rejected append: degradation is
// best-effort, the quota is the authority.
func degradeFanIn(d *emio.Disk, fan int) int {
	headroom := d.DiskBudget() - d.DiskBytes()
	bb := d.BlockBytes()
	for fan > 2 && (int64(fan)*(emio.ConsumeLag+1)+1)*bb > headroom {
		fan--
	}
	return fan
}

// runCapacity is the element capacity of one formed run: M/B - 2 blocks, at
// least one. One block is left for the run writer and one as slack for a
// caller-held stream buffer (composite algorithms keep an output writer open
// across a sort).
func runCapacity(m, b int) int { return max(m/b-2, 1) * b }

// mergeFanIn picks the merge width: each input run needs a B-element reader
// buffer, the merger needs about two words per (power-of-two padded) source,
// one output buffer must remain, and one further block is left as slack for a
// caller-held stream buffer. f = (M - 2B) / (B + 4), at least 2.
func mergeFanIn(m, b int) int { return max((m-2*b)/(b+4), 2) }

// Cost returns the exact logical I/O of Sort on n elements of a staged file
// with memory m and block size b, without a disk budget (which may narrow the
// fan-in): one read and one write per block in run formation, then, per merge
// pass, the blocks of every run in a group of two or more plus the blocks of
// the group's output. It replays Sort's run and group sizes, built on the
// same runCapacity and mergeFanIn, so it cannot drift from the algorithm.
func Cost(n int64, m, b int) int64 {
	bb := int64(b)
	blocks := func(k int64) int64 { return (k + bb - 1) / bb }
	runCap := int64(runCapacity(m, b))
	var runs []int64
	for left := n; left > 0; left -= runCap {
		runs = append(runs, min(left, runCap))
	}
	ios := 2 * blocks(n)
	fan := mergeFanIn(m, b)
	for len(runs) > 1 {
		var next []int64
		for lo := 0; lo < len(runs); lo += fan {
			group := runs[lo:min(lo+fan, len(runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			var sum int64
			for _, r := range group {
				sum += r
				ios += blocks(r)
			}
			ios += blocks(sum)
			next = append(next, sum)
		}
		runs = next
	}
	return ios
}

// mergeOpts tunes one group merge. The default (zero) value neither releases
// nor consumes its inputs: the checkpointed merge defers releases until the
// pass record is durable. The plain merge releases consumed groups eagerly,
// and adds consuming readers under a disk budget.
type mergeOpts struct {
	release bool // release input files once the merged output is written
	consume bool // reclaim input blocks behind the read cursors (Reader.Consume)
}

// mergeGroup merges the given sorted runs into one new file, releasing them
// afterwards when opt.release is set. On failure it releases its output and
// leaves the runs to the caller.
func mergeGroup(ctx *emio.Ctx, group []*emio.File, opt mergeOpts) (*emio.File, error) {
	readers := make([]*emio.Reader, 0, len(group))
	closeAll := func() {
		for _, r := range readers {
			r.Close()
		}
	}
	srcs := make([]mmheap.Source, 0, len(group))
	var total int64
	for _, f := range group {
		r, err := emio.NewReader(ctx, f)
		if err != nil {
			closeAll()
			return nil, err
		}
		if opt.consume {
			r.Consume()
		}
		readers = append(readers, r)
		srcs = append(srcs, r.Next)
		total += f.Len()
	}
	m, err := mmheap.New(ctx, srcs)
	if err != nil {
		closeAll()
		return nil, err
	}
	defer m.Close()
	defer closeAll()
	out, err := emio.WriteScratch(ctx, "merge", func(w *emio.Writer) error {
		var n int64
		for {
			e, ok := m.Next()
			if !ok {
				break
			}
			w.Append(e)
			n++
		}
		for _, r := range readers {
			if err := r.Err(); err != nil {
				return err
			}
		}
		// Return the read buffers before the output's final flush; the
		// deferred closeAll covers the failures.
		closeAll()
		if n != total {
			return fmt.Errorf("extsort: merged %d of %d elements", n, total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opt.release {
		for _, f := range group {
			f.Release()
		}
	}
	return out, nil
}
