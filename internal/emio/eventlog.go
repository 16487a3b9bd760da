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
// The log has one sink: the JSON-lines file Config.Log names, kept at debug
// level, buffered, and flushed and closed by Disk.Close. Events are rare
// (faults, retries, phase boundaries), never per-block.

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
)

// logFile is the buffered JSON-lines file behind an event log. The JSON
// handler writes each record with one Write, and a Cancel from another
// goroutine may log while the job's goroutine does or while Disk.Close runs,
// so one mutex serializes the writes with Close; records after Close are
// dropped.
type logFile struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer // one write syscall per record would dominate the emission cost
	closed bool
}

func (l *logFile) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return len(p), nil
	}
	return l.w.Write(p)
}

// Close flushes and closes the file; it is idempotent.
func (l *logFile) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return joinErr(l.w.Flush(), l.f.Close())
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

// setLogHandler attaches (or, with nil, detaches) a structured log sink to
// the disk. Every emitted record is enriched with the live span context
// before reaching h. Strictly observational: logical Stats, trace JSON and
// all outputs are bit-identical with logging on or off.
func (d *Disk) setLogHandler(h slog.Handler) {
	if h == nil {
		d.logger = nil
		return
	}
	d.logger = slog.New(&spanHandler{inner: h, disk: d})
}

// applyLog creates (or truncates) the JSON-lines file cfg.Log names and
// attaches it as the disk's log sink, at debug level; Disk.Close flushes and
// closes it. Like applyResilience it is additive: an empty path never
// detaches a log already attached to the disk.
func applyLog(d *Disk, cfg Config) error {
	if cfg.Log == "" || d.logFile != nil {
		return nil
	}
	f, err := os.Create(cfg.Log)
	if err != nil {
		return fmt.Errorf("emio: open event log: %w", err)
	}
	d.logFile = &logFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	d.setLogHandler(slog.NewJSONHandler(d.logFile, &slog.HandlerOptions{Level: slog.LevelDebug}))
	return nil
}

// log emits one event if logging is enabled; the single nil check is the
// entire disabled-path cost.
func (d *Disk) log(level slog.Level, msg string, attrs ...slog.Attr) {
	if d.logger == nil {
		return
	}
	d.logger.LogAttrs(context.Background(), level, msg, attrs...)
}
