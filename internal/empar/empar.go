// Package empar is the parallel sharded execution engine: it runs the
// repository's sorting-based algorithms over S logical shards driven by P
// worker goroutines while keeping the logical I/O model exact and
// deterministic.
//
// The input is split into S contiguous block ranges, each handled by a shard
// sub-disk (emio.Disk.NewShard) with its own logical counters, an M/S-element
// memory budget and its own scratch namespace. A Sort proceeds in four
// deterministic phases separated by barriers:
//
//  1. Sample: each shard reads a few equi-spaced blocks of its input slice
//     and returns equi-spaced picks from each; the coordinator sorts the
//     combined sample once in memory and selects S-1 range splitters. One
//     O(1)-I/O-per-shard round, independent of N.
//  2. Runs: each shard forms sorted runs over its input slice
//     (extsort.FormRunsObserved). The observe hook binary-searches every
//     splitter in each sorted chunk, so the engine knows, per run, exactly
//     how many elements fall in each of the S key ranges — no second scan.
//  3. Range merge: shard t merges, from every run of every shard, exactly
//     the sub-range of elements belonging to key range t (a bounded window
//     read through a zero-copy view), producing the globally sorted slice
//     [gstart[t], gstart[t+1]) as a block-aligned body file plus in-memory
//     head/tail fragments for the block boundaries it shares with its
//     neighbors.
//  4. Assemble: the coordinator concatenates head_0 body_0 tail_0 head_1 ...
//     into one output file, adopting each body's extents wholesale
//     (emio.AdoptAppend, zero I/O) and writing only the boundary blocks.
//
// Shard count S is a pure function of M and B (never of the worker count or
// the machine), every task is a pure function of the input, and all shard
// deltas — Stats, memory peaks, footprint peaks, trace spans, metrics — are
// folded into the parent context at phase barriers in shard order. Outputs,
// Stats and trace JSON are therefore bit-identical for every worker count;
// workers change wall-clock speed only. The sorted output equals the
// sequential extsort output byte for byte because the sorted sequence of a
// multiset is unique.
package empar

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/emio"
	"repro/internal/extsort"
	"repro/internal/mmheap"
)

// elemBytes mirrors emio's on-disk element size (two int64 words); used only
// for the human-facing byte figures in Report.
const elemBytes = 16

// Engine drives parallel sharded execution over one parent Ctx. An Engine is
// driven from a single goroutine (like a Ctx); it spins worker goroutines
// internally and joins them before returning from every call.
type Engine struct {
	ctx     *emio.Ctx
	workers int
	hook    func(shard int, d *emio.Disk)

	mu     sync.Mutex
	report Report
}

// Report describes the shard layout of the engine's most recent operation.
type Report struct {
	Shards     int     // shard count S used (1 = sequential fallback)
	Workers    int     // worker goroutines actually used (min(P, S))
	Sequential bool    // fell back to the sequential path
	ShardBytes []int64 // bytes of output produced by each shard's range merge
}

// ShardError wraps the first failure of a parallel phase with the index of
// the shard task that raised it. errors.As/Is reach the underlying cause.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("empar: shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// New returns an engine running up to workers goroutines over ctx's disk.
func New(ctx *emio.Ctx, workers int) (*Engine, error) {
	if ctx == nil {
		return nil, errors.New("empar: nil context")
	}
	if workers < 1 {
		return nil, fmt.Errorf("empar: workers %d < 1", workers)
	}
	return &Engine{ctx: ctx, workers: workers}, nil
}

// SetShardHook installs a callback invoked for every shard sub-disk as it is
// created, before any worker touches it. The fault harness uses it to arm
// injectors on a chosen shard; tests use it to observe the shard layout.
func (e *Engine) SetShardHook(h func(shard int, d *emio.Disk)) { e.hook = h }

// LastReport returns the shard layout of the most recent operation.
func (e *Engine) LastReport() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.report
	r.ShardBytes = slices.Clone(r.ShardBytes)
	return r
}

func (e *Engine) setReport(r Report) {
	e.mu.Lock()
	e.report = r
	e.mu.Unlock()
}

// ShardCount returns the shard count the engine uses under cfg: the largest
// S in {8, 4, 2} whose per-shard budget M/S can still run a range merge at
// the minimum fan-in of two — 2(B+4) source state plus 3B boundary and
// writer buffers plus slack, i.e. M/S >= 6B+24 — else 1. S depends on M and
// B only, never on the worker count, which is what keeps logical accounting
// identical across worker counts.
func ShardCount(cfg emio.Config) int {
	for _, s := range []int{8, 4, 2} {
		if cfg.M >= s*(6*cfg.B+24) {
			return s
		}
	}
	return 1
}

// shardState is the engine-side record of one shard: its sub-disk and
// context, its input block window, and the artifacts it produces phase by
// phase. Each field is written either by the coordinator or by the one task
// goroutine that owns the shard during a phase; phases are barriers.
type shardState struct {
	k    int
	disk *emio.Disk
	ctx  *emio.Ctx

	start, nblk int // input block window [start, start+nblk)

	runs []*emio.File // phase 2: sorted runs over the window
	cuts [][]int64    // per run: count of elements <= splitter[t], len S-1

	inters []*emio.File // phase 3: live intermediate merge files (error cleanup)
	body   *emio.File   // phase 3: block-aligned middle of the shard's range
	headBuf, tailBuf []emio.Elem // phase 3: B-element boundary buffers (charged)
	head, tail       []emio.Elem // filled prefixes of the above
}

// srcSpec describes one sorted source of a range merge: either a bounded
// window [skip, skip+cnt) of a shared run file, or a whole intermediate file
// owned by the merging shard.
type srcSpec struct {
	run       *emio.File
	skip, cnt int64
	whole     *emio.File
}

func (s srcSpec) count() int64 {
	if s.whole != nil {
		return s.whole.Len()
	}
	return s.cnt
}

// Sort returns a new file holding the elements of in sorted by (Key, Aux),
// byte-identical to extsort.Sort's output. The input file is unchanged.
func (e *Engine) Sort(in *emio.File) (*emio.File, error) {
	cfg := e.ctx.Config()
	s := ShardCount(cfg)
	n := in.Len()
	nb := in.NumBlocks()
	// Note no workers attribute: the trace must be bit-identical across
	// worker counts (that is the parity contract), so only layout facts that
	// are functions of (M, B, input) may appear in spans.
	sp := e.ctx.StartSpan("empar/sort",
		emio.AttrInt("n", n), emio.AttrInt("shards", int64(s)))
	defer sp.End()

	// Inputs too small to shard (or configurations too tight) take the
	// sequential path, which is itself deterministic in (M, B, input) and so
	// still worker-count-invariant.
	if s < 2 || nb < 2*s {
		e.setReport(Report{Shards: 1, Workers: 1, Sequential: true})
		return extsort.Sort(e.ctx, in)
	}
	// Settle any write-behind bytes: shard reads bypass the pipeline and go
	// straight to the backing store.
	if err := in.Sync(); err != nil {
		return nil, err
	}
	// Start every call from the same free-space order, so shard
	// reservations do not shorten from one call to the next.
	e.ctx.Disk().OrderFreeExtents()

	sh := make([]*shardState, s)
	for k := range sh {
		d, err := e.ctx.Disk().NewShard(k)
		if err != nil {
			return nil, err
		}
		sctx, err := emio.NewCtxWithDisk(emio.Config{M: cfg.M / s, B: cfg.B}, d)
		if err != nil {
			return nil, err
		}
		if e.ctx.Tracer() != nil {
			sctx.SetTracer(emio.NewTracer())
		}
		sh[k] = &shardState{
			k:     k,
			disk:  d,
			ctx:   sctx,
			start: k * nb / s,
			nblk:  (k+1)*nb/s - k*nb/s,
		}
		if e.hook != nil {
			e.hook(k, d)
		}
	}
	e.setReport(Report{Shards: s, Workers: min(e.workers, s)})

	ok := false
	defer func() {
		if !ok {
			e.releaseShardFiles(sh)
		}
	}()

	// Phase 1: sample and pick splitters.
	splitters, err := e.sampleSplitters(sh, in)
	if err != nil {
		return nil, err
	}

	// Phase 2: per-shard run formation with per-range cut counting.
	rsp := e.ctx.StartSpan("empar/runs", emio.AttrInt("n", n))
	err = e.runTasks(sh, func(st *shardState) error { return formShardRuns(st, in, splitters) })
	e.fold(sh)
	rsp.End()
	if err != nil {
		return nil, err
	}

	// Per-range totals and global offsets, from the cut counts alone.
	cnt := make([]int64, s)
	for _, st := range sh {
		for i, run := range st.runs {
			prev := int64(0)
			for t := 0; t < s; t++ {
				hi := run.Len()
				if t < s-1 {
					hi = st.cuts[i][t]
				}
				cnt[t] += hi - prev
				prev = hi
			}
		}
	}
	gstart := make([]int64, s)
	for t := 1; t < s; t++ {
		gstart[t] = gstart[t-1] + cnt[t-1]
	}
	if got := gstart[s-1] + cnt[s-1]; got != n {
		return nil, fmt.Errorf("empar: range counts cover %d of %d elements", got, n)
	}
	bytes := make([]int64, s)
	for t, c := range cnt {
		bytes[t] = c * elemBytes
	}
	e.setReport(Report{Shards: s, Workers: min(e.workers, s), ShardBytes: bytes})

	// Phase 3: each shard merges its key range out of all runs.
	msp := e.ctx.StartSpan("empar/range-merge", emio.AttrInt("n", n))
	err = e.runTasks(sh, func(st *shardState) error { return mergeShardRange(sh, st.k, cnt[st.k], gstart[st.k]) })
	if err == nil {
		for _, st := range sh {
			for _, run := range st.runs {
				run.Release()
			}
			st.runs = nil
		}
	}
	e.fold(sh)
	msp.End()
	if err != nil {
		return nil, err
	}

	// Phase 4: stitch head/body/tail fragments into one output file.
	out, err := e.assemble(sh, n)
	if err != nil {
		return nil, err
	}
	ok = true
	return out, nil
}

// sampleSplitters runs the one-round sampling pass and returns the S-1 range
// splitters. The per-shard sample sizes are O(B) and independent of N, so
// the whole phase costs O(1) I/Os per shard.
func (e *Engine) sampleSplitters(sh []*shardState, in *emio.File) ([]emio.Elem, error) {
	asp := e.ctx.StartSpan("empar/sample")
	defer asp.End()
	s := len(sh)
	b := e.ctx.B()
	// se picks per sampled block, cs sampled blocks per shard: capped so the
	// shard-side pick slice stays <= 4B elements (it must fit next to the one
	// block buffer inside the M/S budget even for tiny configurations).
	se := min(4, b)
	samples := make([][]emio.Elem, s)
	err := e.runTasks(sh, func(st *shardState) error {
		cs := min(32, st.nblk, max(1, 4*b/se))
		got, err := sampleShard(st, in, cs, se)
		samples[st.k] = got
		return err
	})
	e.fold(sh)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, g := range samples {
		total += len(g)
	}
	samp, err := e.ctx.AllocElems(total)
	if err != nil {
		return nil, err
	}
	defer e.ctx.FreeElems(samp)
	pos := 0
	for _, g := range samples {
		pos += copy(samp[pos:], g)
	}
	slices.SortFunc(samp, emio.Compare)
	splitters := make([]emio.Elem, s-1)
	for t := 1; t < s; t++ {
		splitters[t-1] = samp[t*len(samp)/s]
	}
	return splitters, nil
}

// sampleShard reads cs equi-spaced blocks of the shard's input window and
// returns se equi-spaced picks from each. The returned slice is coordinator
// metadata (like the cut tables), not a charged buffer; it is bounded by
// cs·se <= 4B elements.
func sampleShard(st *shardState, in *emio.File, cs, se int) ([]emio.Elem, error) {
	ssp := st.ctx.StartSpan("empar/shard-sample",
		emio.AttrInt("shard", int64(st.k)), emio.AttrInt("blocks", int64(cs)))
	defer ssp.End()
	view, err := st.disk.NewView(in, st.start, st.nblk, "")
	if err != nil {
		return nil, err
	}
	defer view.Release()
	buf, err := st.ctx.AllocElems(st.ctx.B())
	if err != nil {
		return nil, err
	}
	defer st.ctx.FreeElems(buf)
	out := make([]emio.Elem, 0, cs*se)
	for j := 0; j < cs; j++ {
		bn, err := view.ReadBlock(j*st.nblk/cs, buf)
		if err != nil {
			return nil, err
		}
		picks := min(se, bn)
		for i := 0; i < picks; i++ {
			out = append(out, buf[i*bn/picks])
		}
	}
	return out, nil
}

// formShardRuns forms sorted runs over the shard's input window, recording
// for each run how many of its elements are <= each splitter (one binary
// search per splitter on the sorted chunk, no extra I/O).
func formShardRuns(st *shardState, in *emio.File, splitters []emio.Elem) error {
	ssp := st.ctx.StartSpan("empar/shard-runs",
		emio.AttrInt("shard", int64(st.k)), emio.AttrInt("blocks", int64(st.nblk)))
	defer ssp.End()
	view, err := st.disk.NewView(in, st.start, st.nblk, "")
	if err != nil {
		return err
	}
	defer view.Release()
	runs, err := extsort.FormRunsObserved(st.ctx, view, func(sorted []emio.Elem) {
		cuts := make([]int64, len(splitters))
		for t, spl := range splitters {
			cuts[t] = int64(sort.Search(len(sorted), func(i int) bool {
				return emio.Compare(sorted[i], spl) > 0
			}))
		}
		st.cuts = append(st.cuts, cuts)
	})
	st.runs = runs
	return err
}

// rangeFanIn is the merge width of a range merge under the shard budget m:
// one B-element reader per source plus ~4 words of tournament state, leaving
// room for the output writer and the two boundary buffers (3B) plus slack.
func rangeFanIn(m, b int) int {
	f := (m - 3*b - 16) / (b + 4)
	if f < 2 {
		f = 2
	}
	return f
}

// mergeShardRange merges key range t (the global output slice
// [gs, gs+total)) out of every run of every shard, on shard t's disk and
// budget. The result is a block-aligned body file plus head/tail fragments
// covering the partial blocks at the range's ends, so assembly can adopt the
// body's extents without rewriting them.
func mergeShardRange(sh []*shardState, t int, total, gs int64) error {
	st := sh[t]
	ssp := st.ctx.StartSpan("empar/shard-merge",
		emio.AttrInt("shard", int64(st.k)), emio.AttrInt("n", total))
	defer ssp.End()

	st.body = st.ctx.Scratch("body")
	if total == 0 {
		return nil
	}
	var specs []srcSpec
	for _, src := range sh {
		for i, run := range src.runs {
			lo := int64(0)
			if t > 0 {
				lo = src.cuts[i][t-1]
			}
			hi := run.Len()
			if t < len(sh)-1 {
				hi = src.cuts[i][t]
			}
			if hi > lo {
				specs = append(specs, srcSpec{run: run, skip: lo, cnt: hi - lo})
			}
		}
	}

	// Reduce the source count below the fan-in with standard merge passes,
	// each pass merging groups of <= fanC sources into one intermediate.
	fanC := rangeFanIn(st.ctx.M(), st.ctx.B())
	for len(specs) > fanC {
		var next []srcSpec
		for lo := 0; lo < len(specs); lo += fanC {
			group := specs[lo:min(lo+fanC, len(specs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			inter := st.ctx.Scratch("rmerge")
			st.inters = append(st.inters, inter)
			w, err := emio.NewWriter(st.ctx, inter)
			if err != nil {
				return err
			}
			err = mergeSpecs(st, group, w.Append)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			for _, spec := range group {
				if spec.whole != nil {
					spec.whole.Release()
					st.dropInter(spec.whole)
				}
			}
			next = append(next, srcSpec{whole: inter})
		}
		specs = next
	}

	// Final merge: route each output element to the head fragment, the
	// block-aligned body, or the tail fragment by its global position.
	b := int64(st.ctx.B())
	ge := gs + total
	bodyStart := (gs + b - 1) / b * b
	if bodyStart > ge {
		bodyStart = ge
	}
	bodyEnd := ge / b * b
	if bodyEnd < bodyStart {
		bodyEnd = bodyStart
	}
	var err error
	if st.headBuf, err = st.ctx.AllocElems(int(b)); err != nil {
		return err
	}
	if st.tailBuf, err = st.ctx.AllocElems(int(b)); err != nil {
		return err
	}
	var w *emio.Writer
	if bodyEnd > bodyStart {
		if w, err = emio.NewWriter(st.ctx, st.body); err != nil {
			return err
		}
	}
	pos := gs
	err = mergeSpecs(st, specs, func(e emio.Elem) {
		switch {
		case pos < bodyStart:
			st.headBuf[pos-gs] = e
		case pos < bodyEnd:
			w.Append(e)
		default:
			st.tailBuf[pos-bodyEnd] = e
		}
		pos++
	})
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	// The final merge consumed the last intermediates; without this their
	// extents would stay allocated after the call, and the backing file
	// would grow by about one input per Sort.
	for _, spec := range specs {
		if spec.whole != nil {
			spec.whole.Release()
			st.dropInter(spec.whole)
		}
	}
	if got := st.body.Len(); got != bodyEnd-bodyStart {
		return fmt.Errorf("empar: range %d body holds %d of %d elements", t, got, bodyEnd-bodyStart)
	}
	st.head = st.headBuf[:bodyStart-gs]
	st.tail = st.tailBuf[:ge-bodyEnd]
	return nil
}

// mergeSpecs opens every source (bounded run windows through zero-copy
// views, whole intermediates directly), merges them with a tournament tree
// and streams the result to emit in nondecreasing order. Views and readers
// are closed on every path; consumed intermediates are the caller's to
// release.
func mergeSpecs(st *shardState, specs []srcSpec, emit func(emio.Elem)) error {
	var (
		readers []*emio.Reader
		views   []*emio.File
	)
	defer func() {
		for _, r := range readers {
			r.Close()
		}
		for _, v := range views {
			v.Release()
		}
	}()
	b := int64(st.ctx.B())
	srcs := make([]mmheap.Source, 0, len(specs))
	var total int64
	for _, spec := range specs {
		f := spec.whole
		if f == nil {
			firstBlk := spec.skip / b
			lastBlk := (spec.skip + spec.cnt - 1) / b
			v, err := st.disk.NewView(spec.run, int(firstBlk), int(lastBlk-firstBlk+1), "")
			if err != nil {
				return err
			}
			views = append(views, v)
			f = v
		}
		r, err := emio.NewReader(st.ctx, f)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		if spec.whole != nil {
			srcs = append(srcs, r.Next)
		} else {
			for skip := spec.skip - (spec.skip/b)*b; skip > 0; skip-- {
				if _, ok := r.Next(); !ok {
					if err := r.Err(); err != nil {
						return err
					}
					return fmt.Errorf("empar: run %s short of window", spec.run.Name())
				}
			}
			rr, remaining := r, spec.cnt
			srcs = append(srcs, func() (emio.Elem, bool) {
				if remaining <= 0 {
					return emio.Elem{}, false
				}
				e, ok := rr.Next()
				if ok {
					remaining--
				}
				return e, ok
			})
		}
		total += spec.count()
	}
	m, err := mmheap.New(st.ctx, srcs)
	if err != nil {
		return err
	}
	defer m.Close()
	var n int64
	for {
		e, ok := m.Next()
		if !ok {
			break
		}
		emit(e)
		n++
	}
	for _, r := range readers {
		if err := r.Err(); err != nil {
			return err
		}
	}
	if n != total {
		return fmt.Errorf("empar: range merge emitted %d of %d elements", n, total)
	}
	return nil
}

// assemble stitches the per-range head/body/tail fragments into one output
// file on the parent context. Bodies are adopted extent-wise (zero I/O);
// only blocks straddling a range boundary are written here, through one
// B-element carry buffer. The carry fill entering range t is always
// gstart[t] mod B, so every adoption happens on a block boundary.
func (e *Engine) assemble(sh []*shardState, n int64) (*emio.File, error) {
	osp := e.ctx.StartSpan("empar/assemble", emio.AttrInt("n", n))
	defer osp.End()
	b := e.ctx.B()
	out := e.ctx.Scratch("parsorted")
	carry, err := e.ctx.AllocElems(b)
	if err != nil {
		out.Release()
		return nil, err
	}
	defer e.ctx.FreeElems(carry)
	fill := 0
	flush := func(elems []emio.Elem) error {
		for _, el := range elems {
			carry[fill] = el
			fill++
			if fill == b {
				if err := out.AppendBlock(carry); err != nil {
					return err
				}
				fill = 0
			}
		}
		return nil
	}
	for _, st := range sh {
		if err := flush(st.head); err != nil {
			out.Release()
			return nil, err
		}
		if st.body.NumBlocks() > 0 {
			if fill != 0 {
				out.Release()
				return nil, fmt.Errorf("empar: body of range %d not block-aligned (carry %d)", st.k, fill)
			}
			if err := emio.AdoptAppend(out, st.body); err != nil {
				out.Release()
				return nil, err
			}
		} else {
			st.body.Release()
		}
		st.body = nil
		if err := flush(st.tail); err != nil {
			out.Release()
			return nil, err
		}
		st.freeBoundary()
	}
	if fill > 0 {
		if err := out.AppendBlock(carry[:fill]); err != nil {
			out.Release()
			return nil, err
		}
	}
	if out.Len() != n {
		out.Release()
		return nil, fmt.Errorf("empar: assembled %d of %d elements", out.Len(), n)
	}
	return out, nil
}

// runTasks executes fn on every shard with up to e.workers goroutines
// pulling shard indexes from a shared counter, and settles each shard's
// disk when its task ends (emio.Disk.Settle), so the barrier hands only
// written files to the next phase. The first error (by lowest shard index)
// is returned wrapped in a ShardError; a failure stops idle workers from
// claiming further tasks but never interrupts a running one, so every
// goroutine joins before return.
func (e *Engine) runTasks(sh []*shardState, fn func(st *shardState) error) error {
	n := len(sh)
	workers := min(e.workers, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n || failed.Load() {
					return
				}
				err := fn(sh[t])
				if serr := sh[t].disk.Settle(); err == nil {
					err = serr
				}
				if err != nil {
					errs[t] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return &ShardError{Shard: t, Err: err}
		}
	}
	return nil
}

// fold merges every shard's accounting delta into the parent, in shard
// order, and resets the shard meters: logical Stats are added to the parent
// disk (and exported per shard through the empart_shard_* counter vectors
// when metrics are armed), memory and footprint peaks raise the parent peaks
// under the worst-case concurrent-residency model (parent usage plus the sum
// of shard peaks), and shard trace spans are grafted under the currently
// open parent span. Called at every phase barrier, before the phase span
// ends, so phase spans attribute shard work correctly.
func (e *Engine) fold(sh []*shardState) {
	pd := e.ctx.Disk()
	pm := e.ctx.Mem()
	iom := pd.Metrics()
	var memSum, liveSum int64
	for _, st := range sh {
		delta := st.disk.Stats()
		pd.AddStats(delta)
		st.disk.ResetStats()
		if iom != nil && (delta.Reads > 0 || delta.Writes > 0) {
			reg := iom.Registry()
			label := strconv.Itoa(st.k)
			reg.CounterVec("empart_shard_logical_reads_total",
				"Logical block reads performed on shard sub-disks.", "shard").With(label).Add(delta.Reads)
			reg.CounterVec("empart_shard_logical_writes_total",
				"Logical block writes performed on shard sub-disks.", "shard").With(label).Add(delta.Writes)
		}
		memSum += st.ctx.Mem().Peak()
		liveSum += st.disk.PeakLiveBlocks()
	}
	pm.RaisePeak(pm.Used() + memSum)
	pd.RaisePeakLive(pd.LiveBlocks() + liveSum)
	for _, st := range sh {
		st.ctx.Mem().ResetPeak()
		st.disk.ResetPeakLive()
	}
	if tr := e.ctx.Tracer(); tr != nil {
		for _, st := range sh {
			if str := st.ctx.Tracer(); str != nil {
				tr.Graft(str.Roots())
				str.Reset()
			}
		}
	}
}

// releaseShardFiles is the error-path cleanup: it releases, in shard order,
// every shard-owned file the failed operation left live, and returns the
// boundary-buffer charges. Views and readers are closed by their owning
// tasks on every path, so none are outstanding here.
func (e *Engine) releaseShardFiles(sh []*shardState) {
	for _, st := range sh {
		for _, run := range st.runs {
			run.Release()
		}
		st.runs = nil
		for _, f := range st.inters {
			f.Release()
		}
		st.inters = nil
		if st.body != nil {
			st.body.Release()
			st.body = nil
		}
		st.freeBoundary()
	}
}

// dropInter removes f from the live-intermediates list after it is consumed.
func (st *shardState) dropInter(f *emio.File) {
	for i, g := range st.inters {
		if g == f {
			st.inters = append(st.inters[:i], st.inters[i+1:]...)
			return
		}
	}
}

// freeBoundary returns the head/tail boundary-buffer charges to the shard's
// accountant.
func (st *shardState) freeBoundary() {
	if st.headBuf != nil {
		st.ctx.FreeElems(st.headBuf)
		st.headBuf, st.head = nil, nil
	}
	if st.tailBuf != nil {
		st.ctx.FreeElems(st.tailBuf)
		st.tailBuf, st.tail = nil, nil
	}
}
