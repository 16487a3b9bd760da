package empart

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// The telemetry parity suite: the FULL telemetry bus — tracer, metrics
// registry and structured event log (the JSON-lines file Config.Log names)
// attached at once — must be strictly observational. For every facade
// driver and every backend, a fully-instrumented run must produce byte-equal
// outputs, equal logical Stats, and bit-identical trace JSON compared to a
// telemetry-off run (tracer only, which both sides need for the trace
// comparison). The suite runs under -race (the event log file is shared
// state) and again pinned to GOMAXPROCS=1.

// runTelemetryParity is runParity with, optionally, a metrics registry
// attached; the event log is armed by the System's own Config.Log.
func runTelemetryParity(t *testing.T, d parityDriver, mk func(t *testing.T) *System, elems []Elem, withTelemetry bool) (parityRun, *System) {
	t.Helper()
	sys := mk(t)
	f := sys.Stage(elems)
	sys.ResetStats()
	sys.SetTracer(NewTracer())
	if withTelemetry {
		sys.SetMetrics(NewMetricsRegistry())
	}
	out := d.run(t, sys, f)
	trace, err := sys.Tracer().JSON()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if leaks := sys.LiveScratchFiles(); len(leaks) != 0 {
		t.Fatalf("%s leaked scratch files: %v", d.name, leaks)
	}
	return parityRun{output: out, stats: sys.Stats(), trace: trace}, sys
}

// spanSeqs collects every span sequence number in the recorded trace.
func spanSeqs(sys *System) map[int64]bool {
	seqs := make(map[int64]bool)
	if tr := sys.Tracer(); tr != nil {
		tr.Walk(func(sp *Span) { seqs[sp.Seq] = true })
	}
	return seqs
}

// spanPaths maps every recorded span's seq to the slash-joined names of the
// spans from its root to it.
func spanPaths(sys *System) map[int64]string {
	paths := make(map[int64]string)
	var rec func(sp *Span, path string)
	rec = func(sp *Span, path string) {
		paths[sp.Seq] = path
		for _, ch := range sp.Children {
			rec(ch, path+"/"+ch.Name)
		}
	}
	for _, r := range sys.Tracer().Roots() {
		rec(r, r.Name)
	}
	return paths
}

func telemetryParitySuite(t *testing.T) {
	const n = 1 << 12
	cfg := Config{M: 1 << 10, B: 1 << 5}
	elems := workload.Elems(workload.Uniform, n, cfg.B, 0x6e7)
	for _, d := range parityDrivers(n) {
		t.Run(d.name, func(t *testing.T) {
			for i, be := range metricsParityBackends(cfg) {
				// The "on" backend is the same one, built with Config.Log set.
				logPath := filepath.Join(t.TempDir(), "events.jsonl")
				logged := cfg
				logged.Log = logPath
				off, _ := runTelemetryParity(t, d, be.mk, elems, false)
				on, sys := runTelemetryParity(t, d, metricsParityBackends(logged)[i].mk, elems, true)
				if !bytes.Equal(on.output, off.output) {
					t.Errorf("%s: output differs with telemetry on", be.name)
				}
				if on.stats != off.stats {
					t.Errorf("%s: stats with telemetry on %v != off %v", be.name, on.stats, off.stats)
				}
				if !bytes.Equal(on.trace, off.trace) {
					t.Errorf("%s: trace JSON differs with telemetry on", be.name)
				}

				// The run must actually have been narrated: the file holds one
				// valid JSON object per line, phase boundaries land in it at
				// debug level, every record's span_seq resolves to a real span
				// of the recorded trace, and its phase is that span's path in
				// the trace. The lines are buffered until Close flushes them,
				// and the last one is Close's own.
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				paths := spanPaths(sys)
				sawPhase := false
				var last string
				sc := bufio.NewScanner(bytes.NewReader(data))
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
					var rec map[string]any
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						t.Fatalf("%s: bad JSONL line %q: %v", be.name, sc.Text(), err)
					}
					last, _ = rec["msg"].(string)
					if last == "" || rec["disk"] == nil {
						t.Errorf("%s: JSONL line missing msg/disk: %q", be.name, sc.Text())
					}
					// JSON numbers decode as float64.
					seq, ok := rec["span_seq"].(float64)
					if !ok {
						continue
					}
					sawPhase = true
					want, ok := paths[int64(seq)]
					if !ok {
						t.Errorf("%s: event %q carries span_seq=%v, not a recorded span", be.name, last, seq)
						continue
					}
					if phase, _ := rec["phase"].(string); phase != want {
						t.Errorf("%s: event %q has phase %q, want its span's path %q", be.name, last, phase, want)
					}
				}
				if last != "disk closed" {
					t.Errorf("%s: last JSONL record is %q, want Close's %q", be.name, last, "disk closed")
				}
				if !sawPhase {
					t.Errorf("%s: no event carried span enrichment", be.name)
				}
			}
		})
	}
}

func TestTelemetryParitySuite(t *testing.T) { telemetryParitySuite(t) }

func TestTelemetryParitySuiteSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	telemetryParitySuite(t)
}

// otlpTraceDoc is the slice of the OTLP/JSON trace document the tests check.
type otlpTraceDoc struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				TraceID      string `json:"traceId"`
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				StartTime    string `json:"startTimeUnixNano"`
				EndTime      string `json:"endTimeUnixNano"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

func TestTraceOTLPExport(t *testing.T) {
	cfg := Config{M: 1 << 10, B: 1 << 5}
	sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "t.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	f := sys.Stage(workload.Elems(workload.Uniform, 1<<12, cfg.B, 0xa11))
	sys.SetTracer(NewTracer())
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()

	raw, err := sys.Tracer().OTLP("parity-test")
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace OTLP is not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("want one resourceSpans/scopeSpans, got %+v", doc.ResourceSpans)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 {
		t.Fatal("no spans exported")
	}

	// Count the recorded spans and collect their names for cross-checking.
	var want int
	names := make(map[string]bool)
	sys.Tracer().Walk(func(sp *Span) { want++; names[sp.Name] = true })
	if len(spans) != want {
		t.Errorf("exported %d spans, tracer recorded %d", len(spans), want)
	}

	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		if len(sp.SpanID) != 16 {
			t.Errorf("span %q: spanId %q is not 16 hex chars", sp.Name, sp.SpanID)
		}
		if len(sp.TraceID) != 32 {
			t.Errorf("span %q: traceId %q is not 32 hex chars", sp.Name, sp.TraceID)
		}
		if ids[sp.SpanID] {
			t.Errorf("duplicate spanId %s", sp.SpanID)
		}
		ids[sp.SpanID] = true
		if !names[sp.Name] {
			t.Errorf("exported span %q not in the recorded trace", sp.Name)
		}
	}
	for _, sp := range spans {
		if sp.ParentSpanID != "" && !ids[sp.ParentSpanID] {
			t.Errorf("span %q: parentSpanId %s not among exported spans", sp.Name, sp.ParentSpanID)
		}
	}
}

func TestMetricsOTLPExemplarsResolve(t *testing.T) {
	cfg := Config{M: 1 << 10, B: 1 << 5}
	sys, err := NewFileBacked(cfg, filepath.Join(t.TempDir(), "e.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	f := sys.Stage(workload.Elems(workload.Uniform, 1<<12, cfg.B, 0xa12))
	sys.SetTracer(NewTracer())
	sys.SetMetrics(NewMetricsRegistry())
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()

	raw, err := sys.MetricsRegistry().OTLP("parity-test", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceMetrics []struct {
			ScopeMetrics []struct {
				Metrics []struct {
					Name      string `json:"name"`
					Histogram *struct {
						DataPoints []struct {
							Exemplars []struct {
								FilteredAttributes []struct {
									Key   string `json:"key"`
									Value struct {
										IntValue string `json:"intValue"`
									} `json:"value"`
								} `json:"filteredAttributes"`
							} `json:"exemplars"`
						} `json:"dataPoints"`
					} `json:"histogram"`
				} `json:"metrics"`
			} `json:"scopeMetrics"`
		} `json:"resourceMetrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics OTLP is not valid JSON: %v", err)
	}
	seqs := spanSeqs(sys)
	found := 0
	for _, rm := range doc.ResourceMetrics {
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				if m.Histogram == nil {
					continue
				}
				for _, dp := range m.Histogram.DataPoints {
					for _, ex := range dp.Exemplars {
						for _, a := range ex.FilteredAttributes {
							if a.Key != "empart.span_seq" {
								continue
							}
							found++
							var seq int64
							if _, err := jsonNumber(a.Value.IntValue, &seq); err != nil {
								t.Errorf("%s: exemplar seq %q not an integer", m.Name, a.Value.IntValue)
								continue
							}
							if !seqs[seq] {
								t.Errorf("%s: exemplar span_seq=%d is not a recorded span", m.Name, seq)
							}
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no exemplars exported from an instrumented file-backed sort")
	}
}

// jsonNumber parses OTLP's string-encoded int64.
func jsonNumber(s string, dst *int64) (int, error) {
	n, err := json.Number(s).Int64()
	if err != nil {
		return 0, err
	}
	*dst = n
	return 1, nil
}
