package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

func base() options {
	return options{
		algo: "splitters", n: 1 << 13, Flags: cli.Flags{M: 4096, B: 32},
		k: 8, a: 64, bmax: 0, dist: "uniform", seed: 1,
	}
}

func TestExecuteEveryAlgo(t *testing.T) {
	for _, algo := range []string{
		"splitters", "partition", "multiselect", "multipartition", "precise", "sort",
	} {
		o := base()
		o.algo = algo
		if algo == "precise" {
			o.bmax = 1024
		}
		report, err := execute(o)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(report, "verified") {
			t.Errorf("%s: report lacks verification line: %q", algo, report)
		}
		if !strings.Contains(report, "cost:") {
			t.Errorf("%s: report lacks cost line", algo)
		}
	}
}

func TestExecuteHistogram(t *testing.T) {
	o := base()
	o.algo = "histogram"
	o.k = 8
	o.lo, o.hi = 0.5, 2
	report, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "8 buckets") {
		t.Errorf("report: %q", report)
	}
}

func TestExecuteRejections(t *testing.T) {
	o := base()
	o.algo = "nope"
	if _, err := execute(o); err == nil {
		t.Error("unknown algo accepted")
	}
	o = base()
	o.dist = "nope"
	if _, err := execute(o); err == nil {
		t.Error("unknown distribution accepted")
	}
	o = base()
	o.M = 1
	if _, err := execute(o); err == nil {
		t.Error("bad machine accepted")
	}
	o = base()
	o.k = 3 // does not divide n
	if _, err := execute(o); err == nil {
		t.Error("invalid K accepted")
	}
}

func TestExecuteWithTelemetry(t *testing.T) {
	var telemetry bytes.Buffer
	o := base()
	o.MetricsAddr = "127.0.0.1:0"
	o.Progress = time.Hour // only the final Stop line fires deterministically
	o.progressOut = &telemetry
	report, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "verified") {
		t.Errorf("report lacks verification line: %q", report)
	}
	got := telemetry.String()
	if !strings.Contains(got, "metrics on http://") {
		t.Errorf("telemetry %q missing metrics URL", got)
	}
	if !strings.Contains(got, "progress: ") || !strings.Contains(got, "ios") {
		t.Errorf("telemetry %q missing progress line", got)
	}
}

// TestExecuteWritesOTLP: -otlp PREFIX exports the run's trace and metrics as
// OTLP/JSON documents.
func TestExecuteWritesOTLP(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	o := base()
	o.OTLP = prefix
	o.progressOut = &bytes.Buffer{}
	if _, err := execute(o); err != nil {
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

// TestExecuteHostLine pins the report's first line: what the host supports
// and which backend the run used.
func TestExecuteHostLine(t *testing.T) {
	for backend, backing := range map[string]string{"memory": "", "file": filepath.Join(t.TempDir(), "d.dat")} {
		o := base()
		o.Backing = backing
		report, err := execute(o)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(report, "\n")
		want := regexp.MustCompile(`^host: directIO=(true|false) uring=(true|false)  backend=` + backend + `$`)
		if !want.MatchString(first) {
			t.Errorf("host line %q, want a match of %v", first, want)
		}
	}
}
