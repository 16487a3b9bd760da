package empart

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
)

// suite is the set of algorithm drivers the tracing tests sweep: every
// public entry point that performs counted I/O.
var suite = []struct {
	name string
	run  func(sys *System, f *File) error
}{
	{"sort", func(sys *System, f *File) error {
		out, err := sys.Sort(f)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"distsort", func(sys *System, f *File) error {
		out, err := sys.DistributionSort(f)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"multiselect", func(sys *System, f *File) error {
		ranks := make([]int64, 63)
		for i := range ranks {
			ranks[i] = int64(i+1) * f.Len() / 64
		}
		out, err := sys.MultiSelect(f, ranks)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"multipartition", func(sys *System, f *File) error {
		sizes := make([]int64, 64)
		prev := int64(0)
		for i := range sizes {
			cum := int64(i+1) * f.Len() / 64
			sizes[i] = cum - prev
			prev = cum
		}
		out, err := sys.MultiPartition(f, sizes)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"splitters", func(sys *System, f *File) error {
		out, err := sys.Splitters(f, Params{K: 32, A: 16, B: f.Len()})
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"partition", func(sys *System, f *File) error {
		res, err := sys.Partition(f, Params{K: 32, A: 0, B: f.Len() / 8})
		if err != nil {
			return err
		}
		res.Release()
		return nil
	}},
	{"precise", func(sys *System, f *File) error {
		out, err := sys.PrecisePartition(f, f.Len()/16)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}},
	{"histogram", func(sys *System, f *File) error {
		_, err := sys.EquiDepthHistogram(f, 16, 0.5, 0.5)
		return err
	}},
}

// runSuite stages a fresh deterministic input on a fresh System, optionally
// attaches a tracer, runs one driver and returns the System.
func runSuite(t *testing.T, name string, run func(sys *System, f *File) error, traced bool) *System {
	t.Helper()
	sys := newSys(t)
	elems := workload.Elems(workload.Uniform, 1<<14, sys.Config().B, 0xabcde)
	f := sys.Stage(elems)
	sys.ResetStats()
	if traced {
		sys.SetTracer(NewTracer())
	}
	if err := run(sys, f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sys
}

// TestTracingIsZeroOverhead is the regression test for the nil-tracer fast
// path and the observational tracer: every algorithm's Disk.Stats() must be
// bit-identical with and without a tracer attached. Tracing reads counters;
// it must never perform I/O, draw randomness, or charge memory.
func TestTracingIsZeroOverhead(t *testing.T) {
	for _, tc := range suite {
		plain := runSuite(t, tc.name, tc.run, false)
		traced := runSuite(t, tc.name, tc.run, true)
		if p, q := plain.Stats(), traced.Stats(); p != q {
			t.Errorf("%s: stats diverge with tracing: untraced %v, traced %v", tc.name, p, q)
		}
		if p, q := plain.PeakMemory(), traced.PeakMemory(); p != q {
			t.Errorf("%s: peak memory diverges with tracing: untraced %d, traced %d", tc.name, p, q)
		}
	}
}

// TestTraceChildIOSumsToParent asserts the structural span invariant on the
// whole suite: children cover disjoint sub-intervals of their parent, so the
// sum of the children's I/O deltas never exceeds the parent's. For the merge
// sort root, whose two phases cover all its I/O, the sum is exact.
func TestTraceChildIOSumsToParent(t *testing.T) {
	for _, tc := range suite {
		sys := runSuite(t, tc.name, tc.run, true)
		tr := sys.Tracer()
		spans := 0
		tr.Walk(func(sp *Span) {
			spans++
			if sp.Open() {
				t.Errorf("%s: span %s left open", tc.name, sp.Name)
			}
			var sum int64
			for _, ch := range sp.Children {
				sum += ch.IO.Total()
			}
			if sum > sp.IO.Total() {
				t.Errorf("%s: span %s children I/O %d exceeds own %d",
					tc.name, sp.Name, sum, sp.IO.Total())
			}
		})
		if spans == 0 {
			t.Errorf("%s: no spans recorded", tc.name)
		}
		// Roots cover disjoint intervals of the run, so they sum to at most
		// the run's total I/O.
		var rootSum int64
		for _, r := range tr.Roots() {
			rootSum += r.IO.Total()
		}
		if total := sys.Stats().Total(); rootSum > total {
			t.Errorf("%s: root spans I/O %d exceeds run total %d", tc.name, rootSum, total)
		}
	}

	// Exactness for the sort root: form-runs plus the merge passes are all
	// the I/O there is.
	sys := runSuite(t, "sort", suite[0].run, true)
	root := sys.Tracer().Find("extsort/sort")[0]
	var sum int64
	for _, ch := range root.Children {
		sum += ch.IO.Total()
	}
	if sum != root.IO.Total() {
		t.Errorf("sort: children I/O %d != root I/O %d", sum, root.IO.Total())
	}
}

// TestTraceReportAndJSONFacade exercises the public rendering surface: the
// attached tracer's Render and JSON, reached through System.Tracer.
func TestTraceReportAndJSONFacade(t *testing.T) {
	sys := newSys(t)
	// traceReport and traceJSON render the attached tracer, empty without one.
	traceReport := func() string {
		if tr := sys.Tracer(); tr != nil {
			return tr.Render()
		}
		return ""
	}
	traceJSON := func() ([]byte, error) {
		if tr := sys.Tracer(); tr != nil {
			return tr.JSON()
		}
		return nil, nil
	}
	if traceReport() != "" {
		t.Error("TraceReport nonempty with no tracer")
	}
	if raw, err := traceJSON(); err != nil || raw != nil {
		t.Errorf("TraceJSON with no tracer = %s, %v", raw, err)
	}
	if sys.Tracer() != nil {
		t.Error("Tracer() nonnil before SetTracer")
	}

	_, f := stageUniform(t, sys, 4096, 9)
	tr := NewTracer()
	sys.SetTracer(tr)
	if sys.Tracer() != tr {
		t.Error("Tracer() does not round-trip SetTracer")
	}
	out, err := sys.Sort(f)
	if err != nil {
		t.Fatal(err)
	}
	out.Release()

	report := traceReport()
	for _, want := range []string{"extsort/sort", "extsort/form-runs", "extsort/merge-pass", "peakMem"} {
		if !strings.Contains(report, want) {
			t.Errorf("TraceReport missing %q:\n%s", want, report)
		}
	}
	raw, err := traceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []map[string]any
	if err := json.Unmarshal(raw, &nodes); err != nil {
		t.Fatalf("TraceJSON not valid JSON: %v", err)
	}
	if len(nodes) != 1 || nodes[0]["name"] != "extsort/sort" {
		t.Errorf("TraceJSON roots = %v", nodes)
	}

	// Detaching restores the untraced fast path.
	sys.SetTracer(nil)
	if traceReport() != "" {
		t.Error("TraceReport nonempty after detach")
	}
}

// TestSuiteLeavesNoScratchFiles runs every algorithm and then asserts, via
// the live-file registry, that no scratch file survived once outputs are
// released: the leak detector satellite, exercised across the whole suite.
func TestSuiteLeavesNoScratchFiles(t *testing.T) {
	for _, tc := range suite {
		sys := runSuite(t, tc.name, tc.run, false)
		if leaked := sys.LiveScratchFiles(); len(leaked) > 0 {
			t.Errorf("%s: leaked %d scratch files: %v", tc.name, len(leaked), leaked)
		}
		// The staged input is the only file that should remain.
		if live := sys.LiveFiles(); len(live) != 1 || live[0] != "staged" {
			t.Errorf("%s: live files = %v, want [staged]", tc.name, live)
		}
	}
}
