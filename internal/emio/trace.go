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
// The tracer is strictly observational: starting and ending a span reads
// counters that the disk and accountant already maintain and performs no
// I/O, no random draws and no budgeted allocation, so a traced run's
// Disk.Stats() are bit-identical to an untraced run's. With no tracer
// attached, Ctx.StartSpan returns a nil *Span whose End is a no-op — the
// untraced fast path is one nil check per phase boundary.

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
	// Depth is the nesting depth in the trace tree (roots are 0).
	Depth int
	// Retries counts the physical-transfer retry attempts the resilience
	// layer performed during the span (inclusive of children, like IO).
	// Zero — and omitted from trace JSON — unless a retry policy is armed
	// and transient faults actually occurred.
	Retries int64
	// Seq is the span's start sequence number, assigned by the tracer in
	// strictly increasing order of StartSpan calls. Children are exported
	// sorted by Seq, so trace JSON and rendered trees are deterministic by
	// construction rather than by scheduler accident.
	Seq int64

	tracer *Tracer
	ctx    *Ctx
	parent *Span
	open   bool

	// metricsOnly marks a span created with metrics or logging enabled but
	// no tracer attached: it feeds the phase gauges and the log span context
	// and records nothing else.
	metricsOnly bool
	phasePushed bool
	phaseDepth  int
	logPushed   bool
	logDepth    int

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
	cur   *Span
	seq   int64
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetTracer attaches (or, with nil, detaches) a tracer to the context.
func (c *Ctx) SetTracer(t *Tracer) { c.tracer = t }

// Tracer returns the attached tracer, nil when tracing is disabled.
func (c *Ctx) Tracer() *Tracer { return c.tracer }

// StartSpan opens a span as a child of the currently open span (or as a new
// root). It returns nil when no tracer is attached and metrics and logging
// are disabled; a nil *Span's methods are all no-ops, so instrumentation
// sites need no tracing checks of their own. With metrics or logging enabled
// but no tracer, the returned span records nothing in a trace tree — it only
// drives the live phase gauges (empart_phase, empart_phase_depth) and the
// event log's span context.
func (c *Ctx) StartSpan(name string, attrs ...Attr) *Span {
	if c.tracer == nil {
		d := c.disk
		m := d.iom
		if m == nil && d.logger == nil {
			return nil
		}
		d.spanSeq++
		sp := &Span{
			Name:        name,
			Seq:         d.spanSeq,
			ctx:         c,
			open:        true,
			metricsOnly: true,
		}
		if m != nil {
			sp.phasePushed = true
			sp.phaseDepth = m.pushPhase(name, sp.Seq)
		}
		if d.logger != nil {
			sp.logPushed = true
			sp.logDepth = d.pushLogSpan(name, sp.Seq)
			d.log(slog.LevelDebug, "phase started")
		}
		return sp
	}
	return c.tracer.start(c, name, attrs)
}

func (t *Tracer) start(c *Ctx, name string, attrs []Attr) *Span {
	t.seq++
	sp := &Span{
		Name:          name,
		Attrs:         attrs,
		Seq:           t.seq,
		tracer:        t,
		ctx:           c,
		parent:        t.cur,
		open:          true,
		startStats:    c.disk.stats,
		startSeq:      c.scratchSeq,
		startLive:     c.disk.liveScratch,
		startRetries:  c.disk.retryCount(),
		savedPeakMem:  c.mem.Peak(),
		savedPeakDisk: c.disk.PeakLiveBlocks(),
	}
	sp.startWall = time.Now()
	if m := c.disk.iom; m != nil {
		sp.phasePushed = true
		sp.phaseDepth = m.pushPhase(name, sp.Seq)
	}
	if c.disk.logger != nil {
		sp.logPushed = true
		sp.logDepth = c.disk.pushLogSpan(name, sp.Seq)
		c.disk.log(slog.LevelDebug, "phase started")
	}
	if t.cur != nil {
		sp.Depth = t.cur.Depth + 1
		t.cur.Children = append(t.cur.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.cur = sp
	// Scope the high-water marks to this span; End restores the enclosing
	// span's view. Purely observational — never affects budget enforcement.
	c.mem.ResetPeak()
	c.disk.ResetPeakLive()
	return sp
}

// End closes the span, recording its resource deltas. Safe on a nil or
// already-ended span. If descendants are still open (an error unwound past
// their End calls), they are closed first so the tree stays well-formed.
func (sp *Span) End() {
	if sp == nil || !sp.open {
		return
	}
	if sp.metricsOnly {
		sp.open = false
		if sp.logPushed {
			sp.ctx.disk.log(slog.LevelDebug, "phase ended")
		}
		sp.popPhase()
		sp.popLog()
		return
	}
	t := sp.tracer
	for t.cur != nil && t.cur != sp {
		t.cur.finish()
	}
	sp.finish()
}

// popPhase restores the metrics phase stack to the depth captured at span
// start. Truncation (rather than a single pop) keeps the stack consistent
// when an error unwinds past nested End calls.
func (sp *Span) popPhase() {
	if !sp.phasePushed {
		return
	}
	if m := sp.ctx.disk.iom; m != nil {
		m.popPhaseTo(sp.phaseDepth)
	}
}

// popLog is popPhase for the event log's span context.
func (sp *Span) popLog() {
	if !sp.logPushed {
		return
	}
	sp.ctx.disk.popLogSpanTo(sp.logDepth)
}

func (sp *Span) finish() {
	c := sp.ctx
	sp.endWall = time.Now()
	sp.IO = c.disk.stats.Sub(sp.startStats)
	sp.PeakMem = c.mem.Peak()
	sp.PeakDisk = c.disk.PeakLiveBlocks()
	sp.FilesCreated = c.scratchSeq - sp.startSeq
	sp.LiveFileDelta = int64(c.disk.liveScratch - sp.startLive)
	sp.Retries = c.disk.retryCount() - sp.startRetries
	c.mem.RaisePeak(sp.savedPeakMem)
	c.disk.RaisePeakLive(sp.savedPeakDisk)
	sp.open = false
	sp.tracer.cur = sp.parent
	if sp.logPushed {
		c.disk.log(slog.LevelDebug, "phase ended",
			slog.Int64("reads", sp.IO.Reads), slog.Int64("writes", sp.IO.Writes))
	}
	sp.popPhase()
	sp.popLog()
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
func (t *Tracer) Reset() { t.roots, t.cur = nil, nil }

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
