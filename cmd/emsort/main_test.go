package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	empart "repro"
	"repro/internal/cli"
)

func opts(m, b int, backing string, trace bool) runOpts {
	return runOpts{Flags: cli.Flags{M: m, B: b, Backing: backing, Trace: trace}}
}

func TestRunSortsStream(t *testing.T) {
	in := strings.NewReader("5 3 9 1 -4 3")
	var out, report bytes.Buffer
	if err := run(opts(64, 8, "", true), in, &out, &report); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "-4\n1\n3\n3\n5\n9\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if !strings.Contains(report.String(), "N=6") {
		t.Errorf("report %q missing N", report.String())
	}
	if !strings.Contains(report.String(), "extsort/sort") {
		t.Errorf("report %q missing phase trace", report.String())
	}
}

func TestRunFileBacked(t *testing.T) {
	in := strings.NewReader("2 1")
	var out, report bytes.Buffer
	backing := filepath.Join(t.TempDir(), "d.dat")
	if err := run(opts(64, 8, backing, false), in, &out, &report); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n2\n" {
		t.Errorf("output %q", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out, report bytes.Buffer
	o := opts(64, 8, "", false)
	if err := run(o, strings.NewReader("12 potato"), &out, &report); err == nil {
		t.Error("non-numeric input accepted")
	}
	if err := run(o, strings.NewReader("   "), &out, &report); err == nil {
		t.Error("empty input accepted")
	}
	if err := run(opts(1, 8, "", false), strings.NewReader("1"), &out, &report); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRunWithTelemetry(t *testing.T) {
	// -metrics-addr and -progress together: the run must announce the scrape
	// URL, serve a final scrape with the job's counters, and print at least
	// the final progress line.
	var in bytes.Buffer
	for i := 2000; i > 0; i-- {
		fmt.Fprintln(&in, i)
	}
	var out, report bytes.Buffer
	o := opts(64, 8, "", false)
	o.MetricsAddr = "127.0.0.1:0"
	o.Progress = time.Hour // only the final Stop line fires deterministically
	if err := run(o, &in, &out, &report); err != nil {
		t.Fatal(err)
	}
	rep := report.String()
	if !strings.Contains(rep, "metrics on http://") {
		t.Errorf("report %q missing metrics URL", rep)
	}
	if !strings.Contains(rep, "progress: ") || !strings.Contains(rep, "ios") {
		t.Errorf("report %q missing progress line", rep)
	}
	if !strings.Contains(rep, "cost") {
		t.Errorf("report %q missing cost line", rep)
	}
}

// TestProgressTotalIsSortCost: a fresh sequential sort's progress line counts
// toward the sort's exact logical I/O, so the final line reads 100% of the
// same unabbreviated total as the cost line, on the plain and the journaled
// path alike.
func TestProgressTotalIsSortCost(t *testing.T) {
	dir := t.TempDir()
	plain := opts(64, 8, "", false)
	journaled := opts(64, 8, filepath.Join(dir, "d.dat"), false)
	journaled.journal = filepath.Join(dir, "d.journal")
	// Two workers on a run of 5,000 keys, which ParallelSort splits: the
	// sort's I/O, and so the total, is the sequential one.
	workers := opts(8192, 64, "", false)
	workers.Workers = 2
	costRe := regexp.MustCompile(`cost reads=\d+ writes=\d+ total=(\d+) `)
	progRe := regexp.MustCompile(`(?m)^progress: (\d+)/(\d+) ios \(100\.0%\)`)
	for name, c := range map[string]struct {
		o runOpts
		n int
	}{"plain": {plain, 300}, "journaled": {journaled, 300}, "workers": {workers, 5000}} {
		var in bytes.Buffer
		for i := c.n; i > 0; i-- {
			fmt.Fprintln(&in, i)
		}
		o := c.o
		o.Progress = time.Hour // only the final Stop line fires deterministically
		var out, report bytes.Buffer
		if err := run(o, &in, &out, &report); err != nil {
			t.Fatal(err)
		}
		cost, prog := costRe.FindStringSubmatch(report.String()), progRe.FindStringSubmatch(report.String())
		if cost == nil || prog == nil {
			t.Fatalf("%s: report lacks a cost line or a final progress line with a total:\n%s", name, report.String())
		}
		if prog[1] != cost[1] || prog[2] != cost[1] {
			t.Errorf("%s: final progress %s/%s ios, want %s/%s as on the cost line", name, prog[1], prog[2], cost[1], cost[1])
		}
	}
}

// TestRunWritesOTLP: -otlp PREFIX exports the run's trace and metrics as
// OTLP/JSON documents.
func TestRunWritesOTLP(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	o := opts(64, 8, "", false)
	o.OTLP = prefix
	var out, report bytes.Buffer
	if err := run(o, strings.NewReader("5 3 9 1 -4 3"), &out, &report); err != nil {
		t.Fatal(err)
	}
	for suffix, key := range map[string]string{".trace.json": "resourceSpans", ".metrics.json": "resourceMetrics"} {
		raw, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc[key]) == 0 {
			t.Errorf("%s: want a JSON document with %s, got %v:\n%.300s", prefix+suffix, key, err, raw)
		}
	}
}

// TestRunWritesEventLog pins -log: the file is created or truncated, holds
// one JSON record per line at debug level, narrates every phase boundary
// with the span's path and seq, and ends with the disk's close, which
// flushes it.
func TestRunWritesEventLog(t *testing.T) {
	var in bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintln(&in, (i*1103)%3001) // 3,000 distinct keys, shuffled
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte("stale line from an earlier run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts(256, 32, "", true)
	o.Log = path
	var out, report bytes.Buffer
	if err := run(o, &in, &out, &report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var last string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		for _, key := range []string{"time", "level", "msg", "disk"} {
			if rec[key] == nil {
				t.Errorf("record %q lacks %q", line, key)
			}
		}
		last, _ = rec["msg"].(string)
		counts[last]++
		if last == "phase started" || last == "phase ended" {
			if rec["level"] != "DEBUG" {
				t.Errorf("phase record %q is not at debug level", line)
			}
			if _, ok := rec["span_seq"].(float64); !ok || rec["phase"] == nil {
				t.Errorf("phase record %q lacks phase or span_seq", line)
			}
		}
	}
	if counts["phase started"] == 0 || counts["phase started"] != counts["phase ended"] {
		t.Errorf("phase started/ended records = %d/%d, want equal and nonzero",
			counts["phase started"], counts["phase ended"])
	}
	if last != "disk closed" {
		t.Errorf("last record %q, want %q: Close flushes the log", last, "disk closed")
	}
}

// TestHostLine pins the report's first line, which CI's io_uring probe
// greps: what the host supports and which backend the run used.
func TestHostLine(t *testing.T) {
	for backend, backing := range map[string]string{"memory": "", "file": filepath.Join(t.TempDir(), "d.dat")} {
		var out, report bytes.Buffer
		if err := run(opts(64, 8, backing, false), strings.NewReader("2 1"), &out, &report); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(report.String(), "\n")
		want := regexp.MustCompile(`^emsort: host directIO=(true|false) uring=(true|false)  backend=` + backend + `$`)
		if !want.MatchString(first) {
			t.Errorf("host line %q, want a match of %v", first, want)
		}
	}
}

func TestTelemetryScrapeDuringRun(t *testing.T) {
	// The scrape endpoint must serve live counters while the job runs: scrape
	// once between phases and once after, and require monotone growth.
	sys, err := empart.New(empart.Config{M: 1 << 10, B: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]empart.Elem, 1<<14)
	for i := range elems {
		elems[i] = empart.Elem{Key: int64(len(elems) - i), Aux: int64(i)}
	}
	f := sys.Stage(elems)
	sys.ResetStats()

	o := cli.Flags{MetricsAddr: "127.0.0.1:0", Progress: time.Hour}
	var report bytes.Buffer
	obs, err := o.Observe("emsort", int64(sys.Machine().Sort(int64(len(elems)))), &report)
	if err != nil {
		t.Fatal(err)
	}
	obs.Attach(sys)
	defer obs.Stop()
	url := strings.TrimSpace(strings.TrimPrefix(
		strings.SplitN(report.String(), "\n", 2)[0], "emsort: metrics on "))

	scrape := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	mid, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	first := scrape()
	if !strings.Contains(first, "empart_logical_reads_total") {
		t.Fatalf("scrape missing logical read counter:\n%.400s", first)
	}
	readsAfterSort := counterValue(t, first, "empart_logical_reads_total")
	if readsAfterSort == 0 {
		t.Error("logical reads still zero after a sort")
	}
	out, err := sys.Sort(mid)
	if err != nil {
		t.Fatal(err)
	}
	second := scrape()
	if got := counterValue(t, second, "empart_logical_reads_total"); got <= readsAfterSort {
		t.Errorf("reads counter did not grow across jobs: %d -> %d", readsAfterSort, got)
	}
	if !strings.Contains(second, "empart_logical_read_ns_p99") {
		t.Error("scrape missing latency percentile gauges")
	}
	mid.Release()
	out.Release()
}

// counterValue extracts one metric value from a Prometheus text scrape.
func counterValue(t *testing.T, scrape, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in scrape", name)
	return 0
}

func TestParseKeysLargeValues(t *testing.T) {
	elems, err := parseKeys(strings.NewReader("9223372036854775807 -9223372036854775808"))
	if err != nil {
		t.Fatal(err)
	}
	if elems[0].Key != 1<<63-1 || elems[1].Key != -(1<<63) {
		t.Errorf("extreme values parsed wrong: %v", elems)
	}
}
