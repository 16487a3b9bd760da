package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// resultDoc is a result file: the host record and every run appended to it
// with -out. Each run holds one value per (workload, metric).
type resultDoc struct {
	Host hostRecord  `json:"host"`
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Quick     bool                      `json:"quick"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct    bool          `json:"correct"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	Backend    backendRecord `json:"backend"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Metrics    metricSet     `json:"metrics"`
}

func loadDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// appendRun adds run to the result file at path, creating the file if it
// does not exist. A file holding runs from another host is left alone.
func appendRun(path string, host hostRecord, run runRecord) error {
	doc, err := loadDoc(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		doc = &resultDoc{Host: host}
	case err != nil:
		return err
	case doc.Host != host:
		return fmt.Errorf("%s holds runs from another host: %+v", path, doc.Host)
	}
	doc.Runs = append(doc.Runs, run)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchSpec is BENCHMARK.json without the command.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over a document's runs.
func (d *resultDoc) values(wl, name string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if m, ok := r.Workloads[wl].Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparable refuses documents measured on different hosts, at different
// sizes, or with a workload whose backend armed differently or that ran
// with a different GOMAXPROCS.
func comparable(base, next *resultDoc) error {
	if base.Host != next.Host {
		return fmt.Errorf("host records differ:\n  base %+v\n  new  %+v", base.Host, next.Host)
	}
	type setting struct {
		Backend    backendRecord
		GOMAXPROCS int
	}
	seen := map[string]setting{}
	quick := map[bool]bool{}
	for _, d := range []*resultDoc{base, next} {
		for _, r := range d.Runs {
			quick[r.Quick] = true
			for wl, rec := range r.Workloads {
				cur := setting{rec.Backend, rec.GOMAXPROCS}
				if prev, ok := seen[wl]; ok && prev != cur {
					return fmt.Errorf("%s ran in different settings: %+v and %+v", wl, prev, cur)
				}
				seen[wl] = cur
			}
		}
	}
	if len(quick) > 1 {
		return errors.New("one side ran at -quick sizes and the other did not")
	}
	return nil
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compare prints one row per (workload, end-to-end metric) with each side's
// median and quartiles and a verdict under the BENCHMARK.json bound:
// "regression" when the new median is worse than the base's by more than
// the bound, "unresolved" when the base's own quartile spread is wider than
// the bound (unless every new run beats every base run). It reports whether
// any row regressed.
func compare(spec *benchSpec, base, next *resultDoc, w io.Writer) (bool, error) {
	if err := comparable(base, next); err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tverdict")
	regressed := false
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			bv, nv := base.values(wl.name, m.Name), next.values(wl.name, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			b1, bm, b3 := quartiles(bv)
			n1, nm, n3 := quartiles(nv)
			change := 0.0
			if nm != bm {
				change = (nm - bm) / math.Abs(bm)
			}
			worse, allBetter := change, slices.Max(nv) < slices.Min(bv)
			if m.Better == "higher" {
				worse, allBetter = -change, slices.Min(nv) > slices.Max(bv)
			}
			spread := 0.0
			if bm != 0 {
				spread = (b3 - b1) / math.Abs(bm)
			}
			verdict := "ok"
			switch {
			case allBetter && -worse > m.Bound:
				verdict = "better"
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				regressed = true
			case -worse > m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\n",
				wl.name, m.Name, m.Bound, bm, b1, b3, nm, n1, n3, 100*change, verdict)
		}
	}
	return regressed, tw.Flush()
}
