package emio

// Phase-level tracing: a Tracer carried by a Ctx records a tree of spans,
// one per algorithm phase (a merge pass, a recursion level, a scatter scan),
// and attributes to each span exactly the resources the EM model cares
// about — block reads/writes, the memory-accountant high-water mark, the
// live-disk-block high-water mark, and scratch-file traffic. The paper's
// bounds are all per-phase (merge sort does ceil(lg_{M/B}(N/B)) passes,
// multi-selection recurses to depth O(lg_{M/B}(K/B))), so spans turn those
// bounds into assertable facts instead of whole-algorithm aggregates.
//
// The Ctx holds the only stack of open spans (its innermost span and the
// spans' parent links), and every observer follows it. The tracer records
// the tree and its deltas; the disk publishes the innermost span (enterSpan,
// exitSpan), which drives the metrics phase gauges, the seq that latency
// and retry exemplars carry, and the phase path and seq of log records.
//
// Spans are strictly observational: starting and ending one reads counters
// that the disk and accountant already maintain and performs no I/O, no
// random draws and no budgeted allocation, so a traced run's Disk.Stats()
// are bit-identical to an untraced run's. With no tracer, metrics registry
// or event log attached, Ctx.StartSpan returns a nil *Span whose End is a
// no-op — the unobserved fast path is one nil check per phase boundary.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// Attr is one key/value annotation on a span (an input size, a fan-in, a
// parameter regime).
type Attr struct {
	Key string
	Val any
}

// AttrInt builds an integer-valued span attribute.
func AttrInt(key string, val int64) Attr { return Attr{Key: key, Val: val} }

// AttrStr builds a string-valued span attribute.
func AttrStr(key, val string) Attr { return Attr{Key: key, Val: val} }

// Span is one node of the trace tree: a named phase with the resource deltas
// observed between its start and its end. All counters are inclusive of the
// span's children (phases nest; a child's I/O is also its parent's I/O).
type Span struct {
	Name     string
	Attrs    []Attr
	Children []*Span

	// IO is the block-transfer delta across the span.
	IO Stats
	// PeakMem is the memory-accountant high-water mark reached within the
	// span (peak-scoped: a quiet span reports its own peak, not an earlier
	// phase's).
	PeakMem int64
	// PeakDisk is the live-disk-block high-water mark reached within the
	// span, similarly scoped.
	PeakDisk int64
	// FilesCreated counts the scratch files created during the span.
	FilesCreated int64
	// LiveFileDelta is the change in live (unreleased) scratch files across
	// the span: positive values are files the span handed to its caller —
	// or leaked.
	LiveFileDelta int64
	// Depth is the number of spans that were open around this one when it
	// started (roots are 0): its depth in the trace tree when the tracer
	// was attached throughout.
	Depth int
	// Retries counts the physical-transfer retry attempts the resilience
	// layer performed during the span (inclusive of children, like IO).
	// Zero — and omitted from trace JSON — unless a retry policy is armed
	// and transient faults actually occurred.
	Retries int64
	// Seq is the span's start sequence number, assigned in strictly
	// increasing order of StartSpan calls by the tracer, or by the disk when
	// no tracer is attached. Children are exported sorted by Seq, so trace
	// JSON and rendered trees are deterministic by construction rather than
	// by scheduler accident.
	Seq int64

	tracer *Tracer // records the span's deltas; nil when none was attached
	ctx    *Ctx
	parent *Span // the span open around this one at start, nil for a root
	open   bool

	// Wall-clock bounds, read by the OTLP exporter. Purely observational —
	// they never appear in the deterministic trace JSON.
	startWall, endWall time.Time

	startStats    Stats
	startSeq      int64
	startLive     int
	startRetries  int64
	savedPeakMem  int64
	savedPeakDisk int64
}

// Tracer records a forest of spans. Attach one to a Ctx with SetTracer; each
// top-level algorithm call then contributes one root span. A Tracer is not
// safe for concurrent use, matching the sequential EM model.
type Tracer struct {
	roots []*Span
	seq   int64
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetTracer attaches (or, with nil, detaches) a tracer to the context.
func (c *Ctx) SetTracer(t *Tracer) { c.tracer = t }

// Tracer returns the attached tracer, nil when tracing is disabled.
func (c *Ctx) Tracer() *Tracer { return c.tracer }

// StartSpan opens a span as a child of the innermost open span (or as a new
// root). It returns nil when no tracer, metrics registry or event log is
// attached; a nil *Span's methods are all no-ops, so instrumentation sites
// need no checks of their own. Without a tracer the span records no deltas:
// it only drives the live phase gauges (empart_phase, empart_phase_depth)
// and the event log's span context.
func (c *Ctx) StartSpan(name string, attrs ...Attr) *Span {
	d, t := c.disk, c.tracer
	if t == nil && d.iom == nil && d.logger == nil {
		return nil
	}
	sp := &Span{Name: name, Attrs: attrs, ctx: c, parent: c.open, open: true}
	if sp.parent != nil {
		sp.Depth = sp.parent.Depth + 1
	}
	if t == nil {
		d.spanSeq++
		sp.Seq = d.spanSeq
	} else {
		t.seq++
		sp.Seq = t.seq
		t.start(sp)
	}
	c.open = sp
	d.enterSpan(sp)
	return sp
}

// start records the counters sp's deltas are taken against and links sp into
// the tree: under the enclosing span when this tracer records that one too,
// else as a root.
func (t *Tracer) start(sp *Span) {
	c := sp.ctx
	sp.tracer = t
	sp.startStats = c.disk.stats
	sp.startSeq = c.scratchSeq
	sp.startLive = c.disk.liveScratch
	sp.startRetries = c.disk.retryCount()
	sp.savedPeakMem = c.mem.Peak()
	sp.savedPeakDisk = c.disk.PeakLiveBlocks()
	sp.startWall = time.Now()
	if p := sp.parent; p != nil && p.tracer == t {
		p.Children = append(p.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	// Scope the high-water marks to this span; finish restores the enclosing
	// span's view. Purely observational — never affects budget enforcement.
	c.mem.ResetPeak()
	c.disk.ResetPeakLive()
}

// End closes the span, recording its resource deltas when traced. Safe on a
// nil or already-ended span. If descendants are still open (an error unwound
// past their End calls), they are closed first so the stack and the tree
// stay well-formed.
func (sp *Span) End() {
	if sp == nil || !sp.open {
		return
	}
	c := sp.ctx
	for c.open != sp {
		c.open.finish()
	}
	sp.finish()
}

// finish pops sp, the innermost open span, off its Ctx's stack.
func (sp *Span) finish() {
	c := sp.ctx
	if sp.tracer != nil {
		sp.endWall = time.Now()
		sp.IO = c.disk.stats.Sub(sp.startStats)
		sp.PeakMem = c.mem.Peak()
		sp.PeakDisk = c.disk.PeakLiveBlocks()
		sp.FilesCreated = c.scratchSeq - sp.startSeq
		sp.LiveFileDelta = int64(c.disk.liveScratch - sp.startLive)
		sp.Retries = c.disk.retryCount() - sp.startRetries
		c.mem.RaisePeak(sp.savedPeakMem)
		c.disk.RaisePeakLive(sp.savedPeakDisk)
	}
	sp.open = false
	c.open = sp.parent
	c.disk.exitSpan(sp)
}

// enterSpan publishes sp, just started, as the disk's innermost open span.
func (d *Disk) enterSpan(sp *Span) {
	d.publishSpan(sp)
	if m := d.iom; m != nil {
		m.phaseStarts.With(sp.Name).Inc()
	}
	d.log(slog.LevelDebug, "phase started")
}

// exitSpan narrates sp's end while it is still published, then publishes its
// parent.
func (d *Disk) exitSpan(sp *Span) {
	if d.logger != nil {
		if sp.tracer != nil {
			d.log(slog.LevelDebug, "phase ended",
				slog.Int64("reads", sp.IO.Reads), slog.Int64("writes", sp.IO.Writes))
		} else {
			d.log(slog.LevelDebug, "phase ended")
		}
	}
	d.publishSpan(sp.parent)
}

// publishSpan stores sp as the disk's innermost open span (nil outside all
// spans) and sets the phase gauges from it. The phase gauges, the seq that
// latency and retry exemplars carry, and the phase path and seq of log
// records all follow this one pointer. The job's goroutine reads it, and so
// does a Cancel from another goroutine when it logs.
func (d *Disk) publishSpan(sp *Span) {
	d.span.Store(sp)
	if m := d.iom; m != nil {
		name, depth := "", 0
		if sp != nil {
			name, depth = sp.Name, sp.Depth+1
		}
		m.phaseInfo.Set(name)
		m.phaseLevel.Set(int64(depth))
	}
}

// exemplarSeq returns the seq of the disk's innermost open span, 0 outside
// all spans. Safe from any goroutine.
func (d *Disk) exemplarSeq() int64 {
	if sp := d.span.Load(); sp != nil {
		return sp.Seq
	}
	return 0
}

// path returns the slash-joined names of the spans from the root to sp. It
// reads only fields fixed before sp was published, so any goroutine may call
// it on a span it loaded from the disk.
func (sp *Span) path() string {
	if sp.parent == nil {
		return sp.Name
	}
	return sp.parent.path() + "/" + sp.Name
}

// SetAttr appends an attribute to the span after the fact (for values known
// only at phase end, like a run count). No-op on a nil span.
func (sp *Span) SetAttr(key string, val int64) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, AttrInt(key, val))
}

// Open reports whether the span has not been ended yet (false for nil).
func (sp *Span) Open() bool { return sp != nil && sp.open }

// Roots returns the top-level spans recorded so far.
func (t *Tracer) Roots() []*Span { return t.roots }

// Reset discards all recorded spans. Open spans are abandoned; callers reset
// only between top-level algorithm invocations.
func (t *Tracer) Reset() { t.roots = nil }

// Walk visits every recorded span in pre-order (parents before children).
func (t *Tracer) Walk(fn func(*Span)) {
	var rec func(*Span)
	rec = func(sp *Span) {
		fn(sp)
		for _, ch := range sp.Children {
			rec(ch)
		}
	}
	for _, r := range t.roots {
		rec(r)
	}
}

// Find returns every recorded span with the given name, in pre-order.
func (t *Tracer) Find(name string) []*Span {
	var out []*Span
	t.Walk(func(sp *Span) {
		if sp.Name == name {
			out = append(out, sp)
		}
	})
	return out
}

// orderedChildren returns the span's children sorted by start sequence.
// On the sequential EM model insertion order already equals start order, so
// this is normally the identity; sorting makes exported trace ordering a
// structural guarantee rather than a scheduler accident.
func (sp *Span) orderedChildren() []*Span {
	ch := slices.Clone(sp.Children)
	slices.SortStableFunc(ch, func(a, b *Span) int { return cmp.Compare(a.Seq, b.Seq) })
	return ch
}

// label renders "name k=v k=v" for the human-readable tree.
func (sp *Span) label() string {
	if len(sp.Attrs) == 0 {
		return sp.Name
	}
	var b strings.Builder
	b.WriteString(sp.Name)
	for _, a := range sp.Attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Val)
	}
	return b.String()
}

// Render returns the human-readable indented span tree with one column per
// tracked resource. Spans still open when rendering are marked "(open)" and
// show zero deltas.
func (t *Tracer) Render() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "span\tios\treads\twrites\tpeakMem\tpeakDisk\tfiles\tlive∆")
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		label := strings.Repeat("· ", depth) + sp.label()
		if sp.open {
			label += " (open)"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%+d\n",
			label, sp.IO.Total(), sp.IO.Reads, sp.IO.Writes,
			sp.PeakMem, sp.PeakDisk, sp.FilesCreated, sp.LiveFileDelta)
		for _, ch := range sp.orderedChildren() {
			rec(ch, depth+1)
		}
	}
	for _, r := range t.roots {
		rec(r, 0)
	}
	w.Flush()
	return b.String()
}

// SpanJSON is the export form of one span, marshaled by Tracer.JSON.
type SpanJSON struct {
	Name          string         `json:"name"`
	StartSeq      int64          `json:"startSeq"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Reads         int64          `json:"reads"`
	Writes        int64          `json:"writes"`
	IOs           int64          `json:"ios"`
	PeakMem       int64          `json:"peakMem"`
	PeakDisk      int64          `json:"peakDiskBlocks"`
	FilesCreated  int64          `json:"filesCreated"`
	LiveFileDelta int64          `json:"liveFileDelta"`
	Retries       int64          `json:"retries,omitempty"`
	Children      []SpanJSON     `json:"children,omitempty"`
}

func (sp *Span) export() SpanJSON {
	j := SpanJSON{
		Name:          sp.Name,
		StartSeq:      sp.Seq,
		Reads:         sp.IO.Reads,
		Writes:        sp.IO.Writes,
		IOs:           sp.IO.Total(),
		PeakMem:       sp.PeakMem,
		PeakDisk:      sp.PeakDisk,
		FilesCreated:  sp.FilesCreated,
		LiveFileDelta: sp.LiveFileDelta,
		Retries:       sp.Retries,
	}
	if len(sp.Attrs) > 0 {
		j.Attrs = make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			j.Attrs[a.Key] = a.Val
		}
	}
	for _, ch := range sp.orderedChildren() {
		j.Children = append(j.Children, ch.export())
	}
	return j
}

// JSON marshals the recorded span forest as an indented JSON array. Roots and
// children appear in start-sequence order, so the bytes are stable across
// runs and scheduler interleavings.
func (t *Tracer) JSON() ([]byte, error) {
	roots := slices.Clone(t.roots)
	slices.SortStableFunc(roots, func(a, b *Span) int { return cmp.Compare(a.Seq, b.Seq) })
	out := make([]SpanJSON, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.export())
	}
	return json.MarshalIndent(out, "", "  ")
}
