package emio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// captureLog attaches a debug-level JSON handler writing into a buffer, as
// Config.Log attaches its file, and returns the buffer.
func captureLog(d *Disk) *bytes.Buffer {
	var buf bytes.Buffer
	d.setLogHandler(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	return &buf
}

// logRecords decodes JSON-lines log output, one record per line.
func logRecords(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON-lines record %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// findRecord returns the first record with the given message, nil if none.
func findRecord(recs []map[string]any, msg string) map[string]any {
	for _, rec := range recs {
		if rec["msg"] == msg {
			return rec
		}
	}
	return nil
}

func TestDiskLogSpanEnrichment(t *testing.T) {
	// Events emitted inside nested spans carry the slash-joined phase path
	// and the span's seq; events outside any span carry neither.
	ctx := mustCtx(t, 64, 8)
	tr := NewTracer()
	ctx.SetTracer(tr)
	d := ctx.Disk()
	buf := captureLog(d)

	root := ctx.StartSpan("outer")
	inner := ctx.StartSpan("inner")
	d.log(slog.LevelInfo, "inside")
	inner.End()
	root.End()
	d.log(slog.LevelInfo, "outside")

	recs := logRecords(t, buf.Bytes())
	inside, outside := findRecord(recs, "inside"), findRecord(recs, "outside")
	if inside == nil || outside == nil {
		t.Fatalf("missing events: %v", recs)
	}
	if got := inside["phase"]; got != "outer/inner" {
		t.Errorf("inside phase = %v, want outer/inner", got)
	}
	// JSON numbers decode as float64.
	seq, ok := inside["span_seq"].(float64)
	if !ok || len(tr.Find("inner")) != 1 || float64(tr.Find("inner")[0].Seq) != seq {
		t.Errorf("inside span_seq = %v, want the inner span's seq", inside["span_seq"])
	}
	if _, ok := outside["phase"]; ok {
		t.Errorf("event outside all spans carries phase = %v", outside["phase"])
	}
	if outside["disk"] != d.id {
		t.Errorf("event disk = %v, want %s", outside["disk"], d.id)
	}
	// Phase boundaries themselves were narrated at debug level.
	started := 0
	for _, rec := range recs {
		if rec["msg"] == "phase started" {
			started++
		}
	}
	if started != 2 {
		t.Errorf("phase started events = %d, want 2", started)
	}
}

func TestDiskLogWithoutTracer(t *testing.T) {
	// The event log works with no tracer attached: StartSpan still assigns
	// seqs and maintains the phase path for enrichment.
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	buf := captureLog(d)
	sp := ctx.StartSpan("solo")
	d.log(slog.LevelInfo, "hello")
	sp.End()
	hello := findRecord(logRecords(t, buf.Bytes()), "hello")
	if hello == nil {
		t.Fatalf("no hello record in %q", buf.String())
	}
	if hello["phase"] != "solo" {
		t.Errorf("phase = %v, want solo", hello["phase"])
	}
	if _, ok := hello["span_seq"].(float64); !ok {
		t.Errorf("span_seq = %v, want the solo span's seq", hello["span_seq"])
	}
}

func TestCtxConfigArmsEventLog(t *testing.T) {
	// Config.Log names the event log file: NewCtx opens it at debug level,
	// its records stay buffered until Disk.Close flushes them, records after
	// Close are dropped, and an empty path attaches nothing.
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ctx, err := NewCtx(Config{M: 64, B: 8, Log: path})
	if err != nil {
		t.Fatal(err)
	}
	d := ctx.Disk()
	sp := ctx.StartSpan("armed")
	d.log(slog.LevelDebug, "debug record")
	sp.End()
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("before Close the file holds %q (err %v), want it empty", data, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d.log(slog.LevelWarn, "after close")
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, rec := range logRecords(t, data) {
		msgs = append(msgs, rec["msg"].(string))
	}
	if want := []string{"phase started", "debug record", "phase ended", "disk closed"}; !slices.Equal(msgs, want) {
		t.Fatalf("records %q, want %q", msgs, want)
	}
	off := mustCtx(t, 64, 8)
	if off.Disk().logger != nil || off.Disk().logFile != nil {
		t.Fatal("an empty Config.Log attached logging")
	}
}

func TestEventLogCancelDuringClose(t *testing.T) {
	// A Cancel from another goroutine logs while the job's goroutine logs
	// and while Disk.Close flushes the file: every write lands whole, and
	// records after Close are dropped.
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ctx, err := NewCtx(Config{M: 64, B: 8, Log: path})
	if err != nil {
		t.Fatal(err)
	}
	d := ctx.Disk()
	const n = 500
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		for i := 0; i < n; i++ {
			d.Cancel(fmt.Errorf("cancel %d", i))
			d.ClearCancel()
		}
	}()
	for i := 0; i < n; i++ {
		d.log(slog.LevelInfo, "job record")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	<-cancelled
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range logRecords(t, data) {
		counts[rec["msg"].(string)]++
	}
	if counts["job record"] != n || counts["disk closed"] != 1 {
		t.Errorf("records %v, want %d job records and one disk closed", counts, n)
	}
}

func TestSetLogHandlerDetach(t *testing.T) {
	ctx := mustCtx(t, 64, 8)
	d := ctx.Disk()
	buf := captureLog(d)
	d.log(slog.LevelInfo, "one")
	d.setLogHandler(nil)
	d.log(slog.LevelInfo, "two") // must be a no-op, not a panic
	if recs := logRecords(t, buf.Bytes()); len(recs) != 1 {
		t.Errorf("got %d records, want 1 (detached sink received an event)", len(recs))
	}
}
