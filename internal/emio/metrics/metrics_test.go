package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecordingAndScrape records into one counter and one
// histogram from 16 goroutines while another scrapes: run under -race it
// checks that each instrument is a set of atomics, as a Cancel from another
// goroutine and the scrape readers need.
func TestConcurrentRecordingAndScrape(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "help")
	h := r.Histogram("test_ns", "help", "ns")
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				r.WritePrometheus(io.Discard)
			}
		}
	}()
	var wg sync.WaitGroup
	const goroutines, perG = 16, 10000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.ObserveEx(int64(j), int64(j))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	s := r.Snapshot().Histograms["test_ns"]
	if s.Count != goroutines*perG || s.Sum != goroutines*perG*(perG-1)/2 || s.Max != perG-1 {
		t.Fatalf("histogram count/sum/max = %d/%d/%d, want %d/%d/%d",
			s.Count, s.Sum, s.Max, goroutines*perG, goroutines*perG*(perG-1)/2, perG-1)
	}
	if r.Counter("test_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	g := New().Gauge("depth", "")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := New().Histogram("lat_ns", "latency", "ns")
	// 90 observations at ~1000, 10 at ~100000: p50 lands in the bucket
	// [512, 1023], p99 in [65536, 131071].
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 90*1000+10*100000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %d", s.Max)
	}
	if s.P50 != 1023 {
		t.Fatalf("p50 = %d, want 1023 (bucket ceiling of 1000)", s.P50)
	}
	if s.P99 != 100000 {
		// 100000's bucket ceiling is 131071, clamped to the observed max.
		t.Fatalf("p99 = %d, want 100000", s.P99)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := New().Histogram("h", "", "")
	h.Observe(0)
	h.Observe(-5) // clamps to 0
	s := h.snapshot()
	if s.Count != 2 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 != 0 && s.P50 != 1 {
		t.Fatalf("p50 of all-zero histogram = %d", s.P50)
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	s := New().Histogram("empty", "", "").snapshot()
	if s.P50 != 0 || s.P99 != 0 || s.Count != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
}

// TestRecordingAllocatesNothing pins the package's allocation-free hot
// paths: recording through an instrument allocates nothing.
func TestRecordingAllocatesNothing(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ns", "", "ns")
	for _, tc := range []struct {
		name string
		rec  func()
	}{
		{"Counter.Inc", c.Inc},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(1000) }},
		{"Histogram.ObserveEx", func() { h.ObserveEx(5000, 42) }},
	} {
		if n := testing.AllocsPerRun(100, tc.rec); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", tc.name, n)
		}
	}
}

// TestBucketBoundsInclusive pins both exports' bucket bounds: bucket i holds
// the integers 2^(i-1) to 2^i - 1, so its Prometheus le label and OTLP
// explicit bound are 2^i - 1 (0 for the zeros' bucket), and an observation
// of exactly 2^k counts in the bucket that starts at it.
func TestBucketBoundsInclusive(t *testing.T) {
	r := New()
	h := r.Histogram("run_blocks", "", "blocks")
	for _, v := range []int64{0, 1, 8, 1024} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`run_blocks_bucket{le="0"} 1` + "\n",
		`run_blocks_bucket{le="1"} 2` + "\n",
		`run_blocks_bucket{le="7"} 2` + "\n",
		`run_blocks_bucket{le="15"} 3` + "\n",
		`run_blocks_bucket{le="1023"} 3` + "\n",
		`run_blocks_bucket{le="2047"} 4` + "\n",
		"run_blocks_p50 1\n",
		"run_blocks_p99 1024\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	raw, err := r.OTLP("test-svc", time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	dp := doc.ResourceMetrics[0].ScopeMetrics[0].Metrics[0].Histogram.DataPoints[0]
	if len(dp.ExplicitBounds) != 12 || len(dp.BucketCounts) != 13 {
		t.Fatalf("explicitBounds %v, bucketCounts %v: want 12 bounds up to 2047", dp.ExplicitBounds, dp.BucketCounts)
	}
	for i, bound := range dp.ExplicitBounds {
		if want := float64(int64(1)<<i - 1); bound != want {
			t.Errorf("explicitBounds[%d] = %v, want %v", i, bound, want)
		}
	}
	// OTLP bucket i counts the values in (bounds[i-1], bounds[i]].
	for i, n := range dp.BucketCounts {
		want := "0"
		if i == 0 || i == 1 || i == 4 || i == 11 {
			want = "1"
		}
		if n != want {
			t.Errorf("bucketCounts[%d] = %s, want %s (bounds %v)", i, n, want, dp.ExplicitBounds)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := New()
	v := r.CounterVec("phase_started_total", "spans", "phase")
	v.With("sort").Add(2)
	v.With("merge").Inc()
	v.With("sort").Inc()
	snap := r.Snapshot()
	if got := snap.Counter(`phase_started_total{phase="sort"}`); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	if got := snap.Counter(`phase_started_total{phase="merge"}`); got != 1 {
		t.Fatalf("labeled counter = %d, want 1", got)
	}
}

func TestSnapshotAndInfo(t *testing.T) {
	r := New()
	r.Counter("c_total", "").Add(5)
	r.Gauge("g", "").Set(-2)
	r.Histogram("h_ns", "", "ns").Observe(100)
	r.Info("phase_info", "", "name").Set("merge-pass")
	s := r.Snapshot()
	if s.Counter("c_total") != 5 || s.Gauge("g") != -2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Histograms["h_ns"].Count != 1 {
		t.Fatalf("histogram snapshot missing: %+v", s.Histograms)
	}
	if s.Infos["phase_info"] != "merge-pass" {
		t.Fatalf("info = %q", s.Infos["phase_info"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("empart_reads_total", "logical block reads").Add(42)
	r.Gauge("empart_queue_depth", "pending blocks").Set(3)
	r.Info("empart_phase", "current phase", "name").Set("extsort/run-formation")
	h := r.Histogram("empart_write_ns", "physical write latency", "ns")
	h.Observe(900)
	h.Observe(100000)
	r.CounterVec("empart_phase_started_total", "spans started", "phase").With("sort").Inc()

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# TYPE empart_reads_total counter",
		"empart_reads_total 42",
		"empart_queue_depth 3",
		`empart_phase{name="extsort/run-formation"} 1`,
		"# TYPE empart_write_ns histogram",
		`empart_write_ns_bucket{le="1023"} 1`,
		`empart_write_ns_bucket{le="+Inf"} 2`,
		"empart_write_ns_sum 100900",
		"empart_write_ns_count 2",
		"empart_write_ns_p50 1023",
		"empart_write_ns_max 100000",
		`empart_phase_started_total{phase="sort"} 1`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Scrapes must be stable: two back-to-back renders of an idle registry
	// are byte-identical (sorted names).
	var b2 bytes.Buffer
	r.WritePrometheus(&b2)
	if b.String() != b2.String() {
		t.Error("two scrapes of an idle registry differ")
	}
}

func TestServeAndScrape(t *testing.T) {
	r := New()
	r.Counter("live_total", "").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "live_total 9") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	// pprof must be reachable on the same server.
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", pp.StatusCode)
	}
}

func TestProgressReporter(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	syncW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var done int64
	rep := StartProgress(syncW, 10*time.Millisecond, func() Progress {
		done += 500
		return Progress{Phase: "merge", Done: done, Total: 2000, Unit: "elems"}
	})
	time.Sleep(35 * time.Millisecond)
	rep.Stop()
	rep.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "phase=merge") || !strings.Contains(out, "elems") {
		t.Fatalf("progress output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "%") {
		t.Fatalf("progress output missing percentage:\n%s", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHumanCount(t *testing.T) {
	for _, tc := range []struct {
		in   int64
		want string
	}{{5, "5"}, {1500, "1.5k"}, {2500000, "2.5M"}, {3200000000, "3.2G"}} {
		if got := humanCount(tc.in); got != tc.want {
			t.Errorf("humanCount(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
