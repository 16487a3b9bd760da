package emio

import (
	"testing"

	"repro/internal/emio/metrics"
)

func TestMetricsCountLogicalTransfers(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	reg := metrics.New()
	ctx.Disk().EnableMetrics(reg)

	f := ctx.Scratch("in")
	in := seqElems(64)
	for i := 0; i < 8; i++ {
		if err := f.AppendBlock(in[i*8 : (i+1)*8]); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Elem, 8)
	for i := 0; i < f.NumBlocks(); i++ {
		if _, err := f.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter("empart_logical_reads_total"); got != 8 {
		t.Errorf("logical reads metric = %d, want 8", got)
	}
	if got := snap.Counter("empart_logical_writes_total"); got != 8 {
		t.Errorf("logical writes metric = %d, want 8", got)
	}
	if h := snap.Histograms["empart_logical_read_ns"]; h.Count != 8 {
		t.Errorf("read latency observations = %d, want 8", h.Count)
	}
	// Metrics mirror, never replace, the model counters.
	if st := ctx.Disk().Stats(); st.Reads != 8 || st.Writes != 8 {
		t.Errorf("Stats = %+v, want 8/8", st)
	}

	// Detach: recording stops, accumulated values persist on the registry.
	ctx.Disk().EnableMetrics(nil)
	if _, err := f.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("empart_logical_reads_total"); got != 8 {
		t.Errorf("reads after detach = %d, want 8", got)
	}
}

func TestMetricsPhysicalLayerFileBacked(t *testing.T) {
	// The file store at engine depths, and at shallow ones (named after the
	// engine's former opt-in).
	for _, tc := range []struct {
		name string
		dep  depths
	}{{"sync", engineDepths}, {"pipelined", shallow(4, 4)}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := engineCtx(t, 1024, 8, tc.dep)
			reg := metrics.New()
			ctx.Disk().EnableMetrics(reg)

			f, err := StoreAll(ctx, "phys", seqElems(512))
			if err != nil {
				t.Fatal(err)
			}
			out, err := LoadAll(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			ctx.FreeElems(out)
			f.Release()
			snap := reg.Snapshot()

			physW := snap.Counter("empart_phys_writes_total")
			physR := snap.Counter("empart_phys_reads_total")
			st := ctx.Disk().PhysStats()
			if physW != st.Writes {
				t.Errorf("phys writes metric = %d, PhysStats = %d", physW, st.Writes)
			}
			if physR != st.Reads {
				t.Errorf("phys reads metric = %d, PhysStats = %d", physR, st.Reads)
			}
			if wr := snap.Histograms["empart_phys_write_run_blocks"]; wr.Count == 0 {
				t.Error("no coalesced-write-run observations")
			}
			if hits := snap.Counter("empart_prefetch_hits_total"); hits == 0 {
				t.Error("sequential scan recorded no prefetch hits")
			}
			if wr := snap.Histograms["empart_phys_write_run_blocks"]; wr.Max < 2 {
				t.Errorf("write-run max = %d, want coalescing >= 2", wr.Max)
			}
			// The queue-depth gauge counts blocks staged or in flight:
			// unsynced appends raise it, and Sync drains it to zero.
			g := ctx.Scratch("gauge")
			for i := 0; i < 3; i++ {
				if err := g.AppendBlock(seqElems(8)); err != nil {
					t.Fatal(err)
				}
			}
			if q := reg.Snapshot().Gauge("empart_write_queue_depth"); q <= 0 {
				t.Errorf("write-queue depth after unsynced appends = %d, want > 0", q)
			}
			if err := g.Sync(); err != nil {
				t.Fatal(err)
			}
			if q := reg.Snapshot().Gauge("empart_write_queue_depth"); q != 0 {
				t.Errorf("write-queue depth after Sync = %d, want 0", q)
			}
			g.Release()
			if got := snap.Counter("empart_extent_frees_total"); got == 0 {
				t.Error("release recorded no extent frees")
			}
			if bb := snap.Gauge("empart_backing_bytes"); bb != ctx.Disk().BackingBytes() {
				t.Errorf("backing-bytes gauge = %d, BackingBytes = %d", bb, ctx.Disk().BackingBytes())
			}
		})
	}
}

func TestMetricsPhaseStackWithoutTracer(t *testing.T) {
	// With metrics on but no tracer, StartSpan must return a live span that
	// drives the phase gauges and whose End restores the enclosing phase.
	ctx := mustCtx(t, 64, 8)
	reg := metrics.New()
	ctx.Disk().EnableMetrics(reg)

	outer := ctx.StartSpan("sort")
	if outer == nil {
		t.Fatal("StartSpan with metrics enabled returned nil")
	}
	inner := ctx.StartSpan("merge-pass")
	snap := reg.Snapshot()
	if got := snap.Infos["empart_phase"]; got != "merge-pass" {
		t.Errorf("phase info = %q, want merge-pass", got)
	}
	if got := snap.Gauge("empart_phase_depth"); got != 2 {
		t.Errorf("phase depth = %d, want 2", got)
	}
	inner.End()
	if got := reg.Snapshot().Infos["empart_phase"]; got != "sort" {
		t.Errorf("phase after inner End = %q, want sort", got)
	}
	outer.End()
	snap = reg.Snapshot()
	if got := snap.Infos["empart_phase"]; got != "" {
		t.Errorf("phase after outer End = %q, want empty", got)
	}
	if got := snap.Gauge("empart_phase_depth"); got != 0 {
		t.Errorf("phase depth after unwind = %d, want 0", got)
	}
	if got := snap.Counter(`empart_phase_started_total{phase="merge-pass"}`); got != 1 {
		t.Errorf("phase-start counter = %d, want 1", got)
	}

	// Error-style unwind: ending the outer span with the inner still open
	// must truncate the stack, not corrupt it.
	a := ctx.StartSpan("a")
	_ = ctx.StartSpan("b")
	a.End()
	if got := reg.Snapshot().Gauge("empart_phase_depth"); got != 0 {
		t.Errorf("depth after unwind past open child = %d, want 0", got)
	}
}

func TestMetricsPhaseStackWithTracer(t *testing.T) {
	// With both a tracer and metrics attached, spans must feed both.
	ctx := mustCtx(t, 64, 8)
	reg := metrics.New()
	ctx.Disk().EnableMetrics(reg)
	tr := NewTracer()
	ctx.SetTracer(tr)

	root := ctx.StartSpan("root")
	child := ctx.StartSpan("child")
	if got := reg.Snapshot().Infos["empart_phase"]; got != "child" {
		t.Errorf("phase info = %q, want child", got)
	}
	child.End()
	root.End()
	if got := reg.Snapshot().Gauge("empart_phase_depth"); got != 0 {
		t.Errorf("phase depth = %d, want 0", got)
	}
	if len(tr.Roots()) != 1 || len(tr.Roots()[0].Children) != 1 {
		t.Errorf("tracer tree malformed: %v", tr.Roots())
	}
}

func TestEndUnwindsSpansOfATracerAttachedLater(t *testing.T) {
	// One stack of open spans: ending a span started before the tracer was
	// attached closes the traced child opened under it, so the tracer keeps
	// no open span and the next span is a root at phase depth 1.
	ctx := mustCtx(t, 64, 8)
	reg := metrics.New()
	ctx.Disk().EnableMetrics(reg)

	outer := ctx.StartSpan("outer")
	tr := NewTracer()
	ctx.SetTracer(tr)
	ctx.StartSpan("inner") // never ended: an error unwound past it
	outer.End()
	next := ctx.StartSpan("next")

	tr.Walk(func(sp *Span) {
		if sp != next && sp.Open() {
			t.Errorf("tracer holds open span %q after outer.End", sp.Name)
		}
	})
	if next.Depth != 0 {
		t.Errorf("next.Depth = %d, want 0", next.Depth)
	}
	roots := tr.Roots()
	if len(roots) != 2 || roots[1] != next {
		t.Errorf("next is not a root: roots = %v", roots)
	}
	if got := reg.Snapshot().Gauge("empart_phase_depth"); got != 1 {
		t.Errorf("phase depth with next open = %d, want 1", got)
	}
	next.End()
}
