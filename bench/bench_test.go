package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
	gen "repro/internal/workload"
)

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDeclarationMatchesTables(t *testing.T) {
	d := readSpec(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the table has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, table %q", i, w.Name, workloads[i].name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d/%d metrics, tables hold %d/%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	table := append(slices.Clone(endToEnd), perLayer...)
	for i, m := range append(slices.Clone(d.EndToEnd), d.PerLayer...) {
		if want := table[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("metric %d: declared %s in %s, table %s in %s", i, m.Name, m.Unit, want.name, want.unit)
		}
	}
}

// TestQuickRunEmitsEveryMetric runs all five workloads, both passes, at
// -quick sizes through the command's own entry point.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	d := readSpec(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seconds", "0.05", "-dir", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("result: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	units := map[string]string{}
	for _, m := range d.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for name, unit := range units {
			m, ok := rep.Metrics[w.name+"/"+name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", w.name, name)
			case m.Unit != unit:
				t.Errorf("%s: %s in %q, declared %q", w.name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
		for _, name := range []string{"job_s_p50", "logical_ios", "setup_s", "telemetry.trace_overhead"} {
			if v := rep.Metrics[w.name+"/"+name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "traces", w.name+".otlp.json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
	}
	doc, err := loadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if regressed, err := compare(d, doc, doc, &table); err != nil || regressed {
		t.Fatalf("a result compared with itself: regressed=%v err=%v\n%s", regressed, err, table.String())
	}
}

func TestChecksRejectCorruptOutputs(t *testing.T) {
	const n = 4096
	o := newOracle(gen.Elems(gen.Uniform, n, 32, 7), true)
	good := slices.Clone(o.sorted)
	mutate := func(f func([]empart.Elem) []empart.Elem) []empart.Elem { return f(slices.Clone(good)) }

	if err := checkSorted(o, good); err != nil {
		t.Fatalf("sorted input rejected: %v", err)
	}
	for name, bad := range map[string][]empart.Elem{
		"swapped":  mutate(func(s []empart.Elem) []empart.Elem { s[10], s[11] = s[11], s[10]; return s }),
		"altered":  mutate(func(s []empart.Elem) []empart.Elem { s[n-1].Key++; return s }),
		"dropped":  mutate(func(s []empart.Elem) []empart.Elem { return s[:n-1] }),
		"repeated": mutate(func(s []empart.Elem) []empart.Elem { s[1] = s[0]; return s }),
	} {
		if checkSorted(o, bad) == nil {
			t.Errorf("sort: %s output accepted", name)
		}
	}

	sizes := []int64{1024, 1024, 1024, 1024}
	if err := checkPartition(o, good, sizes, 4, 512, 2048); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	crossed := mutate(func(s []empart.Elem) []empart.Elem { s[0], s[3000] = s[3000], s[0]; return s })
	if checkPartition(o, crossed, sizes, 4, 512, 2048) == nil {
		t.Error("partition: element in the wrong part accepted")
	}
	if checkPartition(o, good, []int64{256, 1792, 1024, 1024}, 4, 512, 2048) == nil {
		t.Error("partition: part below a accepted")
	}
	if checkPartition(o, good[:n-1], []int64{1024, 1024, 1024, 1023}, 4, 512, 2048) == nil {
		t.Error("partition: lost element accepted")
	}

	split := []empart.Elem{good[1023], good[2047], good[3071]}
	if err := checkSplitters(o, split, 4, 1000, n); err != nil {
		t.Fatalf("valid splitters rejected: %v", err)
	}
	for name, bad := range map[string][]empart.Elem{
		"foreign":   {good[1023], {Key: -1, Aux: -1}, good[3071]},
		"small":     {good[5], good[2047], good[3071]},
		"repeated":  {good[1023], good[1023], good[3071]},
		"too few":   {good[1023], good[2047]},
		"last tiny": {good[1023], good[2047], good[n-2]},
	} {
		if checkSplitters(o, bad, 4, 1000, n) == nil {
			t.Errorf("splitters: %s output accepted", name)
		}
	}

	ranks := []int64{1, 2048, n}
	got := []empart.Elem{good[0], good[2047], good[n-1]}
	if err := checkSelected(o, got, ranks); err != nil {
		t.Fatalf("valid selection rejected: %v", err)
	}
	got[1] = good[2048]
	if checkSelected(o, got, ranks) == nil {
		t.Error("percentiles: wrong rank accepted")
	}
}

func TestCompare(t *testing.T) {
	if q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, med, q3)
	}
	host := hostRecord{NProc: 2, GOMAXPROCS: 2, GoVersion: "go", Kernel: "k"}
	doc := func(h hostRecord, p50s ...float64) *resultDoc {
		d := &resultDoc{Host: h}
		for _, v := range p50s {
			d.Runs = append(d.Runs, runRecord{Workloads: map[string]workloadRecord{
				"sort-direct": {Metrics: metricSet{"job_s_p50": {Value: v, Unit: "s"}}},
			}})
		}
		return d
	}
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "job_s_p50", Unit: "s", Better: "lower", Bound: 0.1}}}
	base := doc(host, 1.0, 1.01, 0.99, 1.0)
	for _, tc := range []struct {
		name      string
		base, new *resultDoc
		regressed bool
		verdict   string
	}{
		{"same", base, doc(host, 1.02, 1.0, 1.01, 0.99), false, "ok"},
		{"slower", base, doc(host, 1.3, 1.31, 1.29, 1.3), true, "regression"},
		{"faster", base, doc(host, 0.7, 0.71, 0.69, 0.7), false, "better"},
		{"noisy base", doc(host, 0.5, 1.5, 1.0, 0.7), doc(host, 1.3, 1.31, 1.29, 1.3), false, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compare(spec, tc.base, tc.new, &out)
		if err != nil || regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v and %q in\n%s", tc.name, regressed, err, tc.regressed, tc.verdict, out.String())
		}
	}
	other := host
	other.NProc = 4
	if _, err := compare(spec, base, doc(other, 1.0), &bytes.Buffer{}); err == nil {
		t.Error("compared results from different hosts")
	}
	oneP := doc(host, 1.0)
	wr := oneP.Runs[0].Workloads["sort-direct"]
	wr.GOMAXPROCS = 1
	oneP.Runs[0].Workloads["sort-direct"] = wr
	if _, err := compare(spec, base, oneP, &bytes.Buffer{}); err == nil {
		t.Error("compared runs of one workload under different GOMAXPROCS")
	}
}
