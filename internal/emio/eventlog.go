package emio

// The structured event log of the EM machine, next to the tracer (post-hoc
// span tree) and the metrics registry (live aggregates). Where those two
// condense, the event log narrates: every noteworthy Disk, pipeline, retry
// and fault occurrence becomes one log/slog record carrying the phase path
// and sequence number of the innermost open span, so a retry storm or a
// checksum failure in a grepped log line points at the exact phase of the
// exact run that caused it. The span is the one the disk publishes at every
// span boundary (Disk.enterSpan), so records follow the same stack of open
// spans as the trace and the phase gauges.
//
// The determinism contract matches the tracer's and the registry's: emitting
// an event performs no simulated I/O, no budgeted allocation and no random
// draws, so logical Stats, trace JSON and all outputs are bit-identical with
// logging on or off (the telemetry parity suite proves it). With logging
// disabled every emission site is one nil check.
//
// Events fan out to up to three sinks: a bounded in-memory ring (always,
// for post-mortem inspection and tests), a JSON-lines file (LogConfig.Path),
// and an arbitrary extra slog.Handler (LogConfig.Handler — a user's own
// logging stack). Ring and file writes are serialized by one mutex; events
// are rare (faults, retries, phase boundaries at debug level), never
// per-block, so the lock is uncontended in practice.

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"
)

// LogConfig arms the structured event log of a System (Config.Log). The log
// is enabled when Enabled is set or when any sink is named (a Path or a
// Handler implies intent).
type LogConfig struct {
	Enabled bool
	// Level is the minimum record level kept; the zero value is slog.LevelInfo.
	// Phase-boundary events are emitted at slog.LevelDebug.
	Level slog.Level
	// Ring is the in-memory ring capacity in events; 0 means DefaultLogRing.
	Ring int
	// Path, when nonempty, appends JSON-lines records to this file
	// (created or truncated at attach time).
	Path string
	// Handler, when non-nil, receives every kept record in addition to the
	// ring and file sinks. It must be safe for concurrent use (a Cancel from
	// another goroutine logs while the job's goroutine does).
	Handler slog.Handler
}

// DefaultLogRing is the ring capacity used when LogConfig.Ring is zero.
const DefaultLogRing = 256

// armed reports whether the configuration asks for logging at all.
func (lc LogConfig) armed() bool {
	return lc.Enabled || lc.Path != "" || lc.Handler != nil
}

// validate rejects a negative ring capacity.
func (lc LogConfig) validate() error {
	if lc.Ring < 0 {
		return fmt.Errorf("%w: log ring capacity %d < 0", ErrBadConfig, lc.Ring)
	}
	return nil
}

// Event is one rendered record of the in-memory ring: timestamp, level,
// message, and the flattened attribute set (span enrichment included).
type Event struct {
	Time  time.Time
	Level slog.Level
	Msg   string
	Attrs map[string]any
}

// EventLog is the fan-out sink of a disk's structured event stream. It
// implements slog.Handler; attach it (or any other handler) with
// Disk.SetLogHandler, or build and attach one with System.EnableLog. Safe
// for concurrent use.
type EventLog struct {
	level slog.Leveler
	extra slog.Handler

	mu     sync.Mutex
	ring   []Event // circular, fixed capacity
	next   int     // ring write cursor
	count  int     // live events in the ring (<= cap)
	total  int64   // events ever kept
	file   *os.File
	fileW  *bufio.Writer // buffers JSON lines; Flush/Close syncs to disk
	fileH  slog.Handler
	closed bool
}

// NewEventLog builds an event log for the given configuration, opening the
// JSON-lines file when a path is named.
func NewEventLog(cfg LogConfig) (*EventLog, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring == 0 {
		ring = DefaultLogRing
	}
	el := &EventLog{
		level: cfg.Level,
		extra: cfg.Handler,
		ring:  make([]Event, ring),
	}
	if cfg.Path != "" {
		f, err := os.Create(cfg.Path)
		if err != nil {
			return nil, fmt.Errorf("emio: open event log: %w", err)
		}
		el.file = f
		// Buffered: a debug-level run narrates every phase boundary, and one
		// write syscall per event would dominate the emission cost. Flush
		// makes the file current; Close always flushes.
		el.fileW = bufio.NewWriterSize(f, 1<<16)
		el.fileH = slog.NewJSONHandler(el.fileW, &slog.HandlerOptions{Level: cfg.Level})
	}
	return el, nil
}

// Enabled implements slog.Handler.
func (el *EventLog) Enabled(_ context.Context, lvl slog.Level) bool {
	return lvl >= el.level.Level()
}

// Handle implements slog.Handler: the record lands in the ring and is
// forwarded to the file and extra sinks.
func (el *EventLog) Handle(ctx context.Context, r slog.Record) error {
	ev := Event{Time: r.Time, Level: r.Level, Msg: r.Message}
	if r.NumAttrs() > 0 {
		ev.Attrs = make(map[string]any, r.NumAttrs())
		r.Attrs(func(a slog.Attr) bool {
			ev.Attrs[a.Key] = a.Value.Resolve().Any()
			return true
		})
	}
	el.mu.Lock()
	if len(el.ring) > 0 {
		el.ring[el.next] = ev
		el.next = (el.next + 1) % len(el.ring)
		if el.count < len(el.ring) {
			el.count++
		}
	}
	el.total++
	var err error
	if el.fileH != nil && !el.closed {
		err = el.fileH.Handle(ctx, r)
	}
	el.mu.Unlock()
	if el.extra != nil && el.extra.Enabled(ctx, r.Level) {
		if eerr := el.extra.Handle(ctx, r); err == nil {
			err = eerr
		}
	}
	return err
}

// WithAttrs implements slog.Handler by binding attributes into every record.
func (el *EventLog) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return el
	}
	return &boundHandler{el: el, attrs: attrs}
}

// WithGroup implements slog.Handler. Groups are flattened (the ring stores a
// flat attribute map); the group name prefixes the keys of grouped attrs.
func (el *EventLog) WithGroup(name string) slog.Handler {
	if name == "" {
		return el
	}
	return &boundHandler{el: el, prefix: name + "."}
}

// boundHandler is an EventLog view with pre-bound attributes or a group
// prefix, produced by WithAttrs/WithGroup.
type boundHandler struct {
	el     *EventLog
	attrs  []slog.Attr
	prefix string
}

func (b *boundHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	return b.el.Enabled(ctx, lvl)
}

func (b *boundHandler) Handle(ctx context.Context, r slog.Record) error {
	r2 := slog.NewRecord(r.Time, r.Level, r.Message, r.PC)
	r2.AddAttrs(b.attrs...)
	if b.prefix == "" {
		r.Attrs(func(a slog.Attr) bool { r2.AddAttrs(a); return true })
	} else {
		r.Attrs(func(a slog.Attr) bool {
			a.Key = b.prefix + a.Key
			r2.AddAttrs(a)
			return true
		})
	}
	return b.el.Handle(ctx, r2)
}

func (b *boundHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &boundHandler{el: b.el, attrs: append(append([]slog.Attr{}, b.attrs...), attrs...), prefix: b.prefix}
}

func (b *boundHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return b
	}
	return &boundHandler{el: b.el, attrs: b.attrs, prefix: b.prefix + name + "."}
}

// Events returns a copy of the ring, oldest first.
func (el *EventLog) Events() []Event {
	el.mu.Lock()
	defer el.mu.Unlock()
	out := make([]Event, 0, el.count)
	start := el.next - el.count
	if start < 0 {
		start += len(el.ring)
	}
	for i := 0; i < el.count; i++ {
		out = append(out, el.ring[(start+i)%len(el.ring)])
	}
	return out
}

// Total returns the number of events ever kept (including ones the ring has
// since overwritten).
func (el *EventLog) Total() int64 {
	el.mu.Lock()
	defer el.mu.Unlock()
	return el.total
}

// Flush forces buffered JSON lines out to the file sink, so the log can be
// tailed mid-run. No-op without a file sink or after Close.
func (el *EventLog) Flush() error {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.fileW == nil || el.closed {
		return nil
	}
	return el.fileW.Flush()
}

// Close flushes and closes the JSON-lines file sink. The ring and extra
// handler keep working; Close is idempotent.
func (el *EventLog) Close() error {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.closed {
		return nil
	}
	el.closed = true
	if el.file != nil {
		var ferr error
		if el.fileW != nil {
			ferr = el.fileW.Flush()
		}
		if cerr := el.file.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}
	return nil
}

// spanHandler enriches every record passing through with the disk's live
// span context (phase path + span seq) and the disk id, making each log
// line attributable to the exact phase — and, with a tracer attached, the
// exact exportable span — that emitted it.
type spanHandler struct {
	inner slog.Handler
	disk  *Disk
}

func (h *spanHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	return h.inner.Enabled(ctx, lvl)
}

func (h *spanHandler) Handle(ctx context.Context, r slog.Record) error {
	if sp := h.disk.span.Load(); sp != nil {
		r.AddAttrs(slog.String("phase", sp.path()), slog.Int64("span_seq", sp.Seq))
	}
	r.AddAttrs(slog.String("disk", h.disk.id))
	return h.inner.Handle(ctx, r)
}

func (h *spanHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &spanHandler{inner: h.inner.WithAttrs(attrs), disk: h.disk}
}

func (h *spanHandler) WithGroup(name string) slog.Handler {
	return &spanHandler{inner: h.inner.WithGroup(name), disk: h.disk}
}

// --- disk-side plumbing -----------------------------------------------------

// SetLogHandler attaches (or, with nil, detaches) a structured log sink to
// the disk. Every emitted record is enriched with the live span context
// before reaching h. Strictly observational: logical Stats, trace JSON and
// all outputs are bit-identical with logging on or off.
func (d *Disk) SetLogHandler(h slog.Handler) {
	if h == nil {
		d.logger = nil
		return
	}
	d.logger = slog.New(&spanHandler{inner: h, disk: d})
}

// AttachEventLog attaches an event log as the disk's log sink and takes
// ownership of it: Disk.Close closes the log's file sink.
func (d *Disk) AttachEventLog(el *EventLog) {
	d.elog = el
	d.SetLogHandler(el)
}

// EventLog returns the attached event log, nil when none is owned by the
// disk (a bare SetLogHandler does not create one).
func (d *Disk) EventLog() *EventLog { return d.elog }

// Logger returns the span-enriching logger, nil when logging is disabled.
// Emissions through it are delivered to the attached sink with phase path,
// span seq and disk id attrs added.
func (d *Disk) Logger() *slog.Logger { return d.logger }

// log emits one event if logging is enabled; the single nil check is the
// entire disabled-path cost.
func (d *Disk) log(level slog.Level, msg string, attrs ...slog.Attr) {
	if d.logger == nil {
		return
	}
	d.logger.LogAttrs(context.Background(), level, msg, attrs...)
}
