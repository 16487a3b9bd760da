package metrics

// Tests for the telemetry-bus surface added with the unified observability
// layer: the whole Prometheus exposition, the OTLP/JSON export with
// exemplars, the pprof routes, and the hardened HTTP/progress lifecycles.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// populate builds a registry exercising every instrument kind.
func populate(t *testing.T) *Registry {
	t.Helper()
	r := New()
	r.Counter("empart_logical_reads_total", "logical reads").Add(1234)
	r.Counter("empart_logical_writes_total", "logical writes").Add(567)
	r.Gauge("empart_phase_depth", "phase depth").Set(3)
	r.Info("empart_phase", "current phase", "phase").Set("extsort/merge")
	r.CounterVec("empart_phase_started_total", "phase starts", "phase").With("extsort").Add(2)
	r.CounterVec("empart_phase_started_total", "phase starts", "phase").With("extsort/merge").Add(7)
	h := r.Histogram("empart_phys_read_ns", "physical read latency", "ns")
	for i, v := range []int64{100, 900, 15_000, 2_000_000} {
		h.ObserveEx(v, int64(10+i))
	}
	return r
}

func TestPrometheusGolden(t *testing.T) {
	// The exact exposition of populate()'s registry, byte for byte: every
	// instrument kind, including each _bucket series of the histogram (le is
	// the bucket's inclusive ceiling), +Inf, _sum, _count and the
	// _p50/_p95/_p99/_max/_max_seq companion gauges.
	var b strings.Builder
	if err := populate(t).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP empart_logical_reads_total logical reads
# TYPE empart_logical_reads_total counter
empart_logical_reads_total 1234
# HELP empart_logical_writes_total logical writes
# TYPE empart_logical_writes_total counter
empart_logical_writes_total 567
# HELP empart_phase_started_total phase starts
# TYPE empart_phase_started_total counter
empart_phase_started_total{phase="extsort"} 2
empart_phase_started_total{phase="extsort/merge"} 7
# HELP empart_phase_depth phase depth
# TYPE empart_phase_depth gauge
empart_phase_depth 3
# HELP empart_phase current phase
# TYPE empart_phase gauge
empart_phase{phase="extsort/merge"} 1
# HELP empart_phys_read_ns physical read latency (ns)
# TYPE empart_phys_read_ns histogram
empart_phys_read_ns_bucket{le="0"} 0
empart_phys_read_ns_bucket{le="1"} 0
empart_phys_read_ns_bucket{le="3"} 0
empart_phys_read_ns_bucket{le="7"} 0
empart_phys_read_ns_bucket{le="15"} 0
empart_phys_read_ns_bucket{le="31"} 0
empart_phys_read_ns_bucket{le="63"} 0
empart_phys_read_ns_bucket{le="127"} 1
empart_phys_read_ns_bucket{le="255"} 1
empart_phys_read_ns_bucket{le="511"} 1
empart_phys_read_ns_bucket{le="1023"} 2
empart_phys_read_ns_bucket{le="2047"} 2
empart_phys_read_ns_bucket{le="4095"} 2
empart_phys_read_ns_bucket{le="8191"} 2
empart_phys_read_ns_bucket{le="16383"} 3
empart_phys_read_ns_bucket{le="32767"} 3
empart_phys_read_ns_bucket{le="65535"} 3
empart_phys_read_ns_bucket{le="131071"} 3
empart_phys_read_ns_bucket{le="262143"} 3
empart_phys_read_ns_bucket{le="524287"} 3
empart_phys_read_ns_bucket{le="1048575"} 3
empart_phys_read_ns_bucket{le="2097151"} 4
empart_phys_read_ns_bucket{le="+Inf"} 4
empart_phys_read_ns_sum 2016000
empart_phys_read_ns_count 4
# HELP empart_phys_read_ns_p50 physical read latency (ns) (p50)
# TYPE empart_phys_read_ns_p50 gauge
empart_phys_read_ns_p50 1023
# HELP empart_phys_read_ns_p95 physical read latency (ns) (p95)
# TYPE empart_phys_read_ns_p95 gauge
empart_phys_read_ns_p95 2000000
# HELP empart_phys_read_ns_p99 physical read latency (ns) (p99)
# TYPE empart_phys_read_ns_p99 gauge
empart_phys_read_ns_p99 2000000
# HELP empart_phys_read_ns_max physical read latency (ns) (max)
# TYPE empart_phys_read_ns_max gauge
empart_phys_read_ns_max 2000000
# HELP empart_phys_read_ns_max_seq physical read latency (ns) (max_seq)
# TYPE empart_phys_read_ns_max_seq gauge
empart_phys_read_ns_max_seq 13
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistogramExemplarTracksMax(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns", "latency", "ns")
	h.ObserveEx(50, 1)
	h.ObserveEx(5000, 42) // the max
	h.ObserveEx(70, 99)
	snap := r.Snapshot().Histograms["lat_ns"]
	if snap.Max != 5000 {
		t.Fatalf("Max = %d, want 5000", snap.Max)
	}
	if snap.MaxSeq != 42 {
		t.Errorf("MaxSeq = %d, want 42 (the span that observed the max)", snap.MaxSeq)
	}
}

// otlpDoc is the subset of the OTLP/JSON metrics document the tests inspect.
type otlpDoc struct {
	ResourceMetrics []struct {
		Resource struct {
			Attributes []struct {
				Key   string `json:"key"`
				Value struct {
					StringValue *string `json:"stringValue"`
				} `json:"value"`
			} `json:"attributes"`
		} `json:"resource"`
		ScopeMetrics []struct {
			Metrics []struct {
				Name string `json:"name"`
				Sum  *struct {
					IsMonotonic            bool `json:"isMonotonic"`
					AggregationTemporality int  `json:"aggregationTemporality"`
					DataPoints             []struct {
						AsInt string `json:"asInt"`
					} `json:"dataPoints"`
				} `json:"sum"`
				Histogram *struct {
					DataPoints []struct {
						Count          string    `json:"count"`
						BucketCounts   []string  `json:"bucketCounts"`
						ExplicitBounds []float64 `json:"explicitBounds"`
						Exemplars      []struct {
							AsInt              string `json:"asInt"`
							FilteredAttributes []struct {
								Key   string `json:"key"`
								Value struct {
									IntValue *string `json:"intValue"`
								} `json:"value"`
							} `json:"filteredAttributes"`
						} `json:"exemplars"`
					} `json:"dataPoints"`
				} `json:"histogram"`
			} `json:"metrics"`
		} `json:"scopeMetrics"`
	} `json:"resourceMetrics"`
}

func TestMetricsOTLPRoundTrip(t *testing.T) {
	r := populate(t)
	raw, err := r.OTLP("test-svc", time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("OTLP output is not valid JSON: %v", err)
	}
	if len(doc.ResourceMetrics) != 1 || len(doc.ResourceMetrics[0].ScopeMetrics) != 1 {
		t.Fatalf("want one resourceMetrics with one scopeMetrics, got %+v", doc.ResourceMetrics)
	}
	var svc string
	for _, a := range doc.ResourceMetrics[0].Resource.Attributes {
		if a.Key == "service.name" && a.Value.StringValue != nil {
			svc = *a.Value.StringValue
		}
	}
	if svc != "test-svc" {
		t.Errorf("service.name = %q, want test-svc", svc)
	}
	byName := map[string]int{}
	ms := doc.ResourceMetrics[0].ScopeMetrics[0].Metrics
	for i, m := range ms {
		byName[m.Name] = i
	}
	i, ok := byName["empart_logical_reads_total"]
	if !ok {
		t.Fatal("counter missing from OTLP export")
	}
	sum := ms[i].Sum
	if sum == nil || !sum.IsMonotonic || sum.AggregationTemporality != 2 {
		t.Errorf("counter sum malformed: %+v", sum)
	}
	if len(sum.DataPoints) != 1 || sum.DataPoints[0].AsInt != "1234" {
		t.Errorf("counter value: %+v, want asInt 1234", sum.DataPoints)
	}
	j, ok := byName["empart_phys_read_ns"]
	if !ok {
		t.Fatal("histogram missing from OTLP export")
	}
	hist := ms[j].Histogram
	if hist == nil || len(hist.DataPoints) != 1 {
		t.Fatalf("histogram malformed: %+v", hist)
	}
	dp := hist.DataPoints[0]
	if dp.Count != "4" {
		t.Errorf("histogram count = %s, want 4", dp.Count)
	}
	if len(dp.BucketCounts) != len(dp.ExplicitBounds)+1 {
		t.Errorf("bucketCounts %d and explicitBounds %d violate len(counts) == len(bounds)+1",
			len(dp.BucketCounts), len(dp.ExplicitBounds))
	}
	if len(dp.Exemplars) != 1 {
		t.Fatalf("want one exemplar on the max bucket, got %d", len(dp.Exemplars))
	}
	ex := dp.Exemplars[0]
	if ex.AsInt != "2000000" {
		t.Errorf("exemplar value = %s, want the max observation 2000000", ex.AsInt)
	}
	if len(ex.FilteredAttributes) != 1 || ex.FilteredAttributes[0].Key != "empart.span_seq" ||
		ex.FilteredAttributes[0].Value.IntValue == nil || *ex.FilteredAttributes[0].Value.IntValue != "13" {
		t.Errorf("exemplar attributes = %+v, want empart.span_seq=13", ex.FilteredAttributes)
	}
}

func TestPprofSmoke(t *testing.T) {
	s, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %s", resp.Status)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%.200s", body)
	}
}

func TestServeCloseIsIdempotent(t *testing.T) {
	s, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestServeRejectsBadAddress(t *testing.T) {
	if _, err := Serve("256.256.256.256:http", New()); err == nil {
		t.Fatal("Serve on a bad address did not fail")
	}
}

func TestProgressGuardsDegenerateSamples(t *testing.T) {
	// Zero totals, negative counters and Done > Total must never print NaN,
	// Inf or a percentage outside [0, 100].
	var sb safeBuilder
	for _, p := range []Progress{
		{Done: 0, Total: 0},
		{Done: -5, Total: -1},
		{Done: 10, Total: 0},
		{Done: 200, Total: 100},
	} {
		r := &Reporter{w: &sb, fn: func() Progress { return p }, start: time.Now().Add(-time.Second),
			stop: make(chan struct{}), done: make(chan struct{})}
		r.emit(p)
	}
	out := sb.String()
	for _, bad := range []string{"NaN", "Inf", "-%"} {
		if strings.Contains(out, bad) {
			t.Errorf("progress output contains %q:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "(100.0%)") {
		t.Errorf("Done > Total should clamp to 100%%:\n%s", out)
	}
	if strings.Contains(out, "(200") {
		t.Errorf("unclamped over-100%% percentage leaked:\n%s", out)
	}
}

// safeBuilder is a strings.Builder safe for the Reporter's locking pattern.
type safeBuilder struct{ strings.Builder }
