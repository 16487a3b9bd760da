package metrics

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders every metric in the registry in the Prometheus
// text exposition format (version 0.0.4). Histograms are exported as native
// Prometheus histograms (cumulative _bucket{le=...} series with _sum and
// _count) plus companion _p50/_p95/_p99/_max gauges, so a bare curl shows
// latency percentiles without needing a PromQL evaluator.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		writeHeader(&b, name, c.help, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, c.Value())
	}
	for _, name := range sortedKeys(r.vecs) {
		v := r.vecs[name]
		writeHeader(&b, name, v.help, "counter")
		v.mu.Lock()
		for _, val := range sortedKeys(v.children) {
			fmt.Fprintf(&b, "%s{%s=%q} %d\n", name, v.label, val, v.children[val].Value())
		}
		v.mu.Unlock()
	}
	for _, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		writeHeader(&b, name, g.help, "gauge")
		fmt.Fprintf(&b, "%s %d\n", name, g.Value())
	}
	for _, name := range sortedKeys(r.infos) {
		i := r.infos[name]
		writeHeader(&b, name, i.help, "gauge")
		fmt.Fprintf(&b, "%s{%s=%q} 1\n", name, i.label, i.Value())
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		help := h.help
		if h.unit != "" {
			help += " (" + h.unit + ")"
		}
		writeHeader(&b, name, help, "histogram")
		snap := h.snapshot()
		var cum int64
		for i, n := range snap.Buckets {
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bucketCeil(i), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", name, snap.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", name, snap.Count)
		for _, q := range []struct {
			suffix string
			v      int64
		}{{"p50", snap.P50}, {"p95", snap.P95}, {"p99", snap.P99}, {"max", snap.Max},
			{"max_seq", snap.MaxSeq}} {
			writeHeader(&b, name+"_"+q.suffix, help+" ("+q.suffix+")", "gauge")
			fmt.Fprintf(&b, "%s_%s %d\n", name, q.suffix, q.v)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}
