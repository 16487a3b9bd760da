package metrics

// OTLP/JSON export of a registry snapshot: an ExportMetricsServiceRequest
// rendered per the OTLP JSON mapping (64-bit integers as decimal strings), so
// the bytes POST straight to a collector's /v1/metrics endpoint with zero
// dependencies. Counters become monotonic cumulative sums, gauges become
// gauges, infos become gauge-1 data points carrying their string as an
// attribute, and the log-bucketed histograms become explicit-bounds OTLP
// histograms whose bucket boundaries are the buckets' inclusive ceilings
// (2^i - 1). A histogram carrying an exemplar (the span seq of its
// max-latency observation) exports it as an OTLP exemplar with an
// empart.span_seq filtered attribute — the correlation hook between a p99
// spike in a metrics backend and the span tree in a trace backend.

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"
)

type otlpMetricKV struct {
	Key   string          `json:"key"`
	Value otlpMetricValue `json:"value"`
}

type otlpMetricValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
}

func metricAttrStr(key, v string) otlpMetricKV {
	return otlpMetricKV{Key: key, Value: otlpMetricValue{StringValue: &v}}
}

func metricAttrInt(key string, v int64) otlpMetricKV {
	s := strconv.FormatInt(v, 10)
	return otlpMetricKV{Key: key, Value: otlpMetricValue{IntValue: &s}}
}

// otlpNumberPoint is one sum or gauge data point; AsInt is the decimal-string
// form of the value.
type otlpNumberPoint struct {
	Attributes        []otlpMetricKV `json:"attributes,omitempty"`
	StartTimeUnixNano string         `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string         `json:"timeUnixNano"`
	AsInt             string         `json:"asInt"`
}

type otlpExemplar struct {
	FilteredAttributes []otlpMetricKV `json:"filteredAttributes,omitempty"`
	TimeUnixNano       string         `json:"timeUnixNano"`
	AsInt              string         `json:"asInt"`
}

type otlpHistogramPoint struct {
	Attributes        []otlpMetricKV `json:"attributes,omitempty"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	TimeUnixNano      string         `json:"timeUnixNano"`
	Count             string         `json:"count"`
	Sum               float64        `json:"sum"`
	BucketCounts      []string       `json:"bucketCounts"`
	ExplicitBounds    []float64      `json:"explicitBounds"`
	Exemplars         []otlpExemplar `json:"exemplars,omitempty"`
	Max               float64        `json:"max"`
}

type otlpSum struct {
	DataPoints             []otlpNumberPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

type otlpGaugeMetric struct {
	DataPoints []otlpNumberPoint `json:"dataPoints"`
}

type otlpHistogramMetric struct {
	DataPoints             []otlpHistogramPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

type otlpMetric struct {
	Name        string               `json:"name"`
	Description string               `json:"description,omitempty"`
	Unit        string               `json:"unit,omitempty"`
	Sum         *otlpSum             `json:"sum,omitempty"`
	Gauge       *otlpGaugeMetric     `json:"gauge,omitempty"`
	Histogram   *otlpHistogramMetric `json:"histogram,omitempty"`
}

type otlpMetricScope struct {
	Name string `json:"name"`
}

type otlpScopeMetrics struct {
	Scope   otlpMetricScope `json:"scope"`
	Metrics []otlpMetric    `json:"metrics"`
}

type otlpMetricResource struct {
	Attributes []otlpMetricKV `json:"attributes"`
}

type otlpResourceMetrics struct {
	Resource     otlpMetricResource `json:"resource"`
	ScopeMetrics []otlpScopeMetrics `json:"scopeMetrics"`
}

// otlpMetricsRequest is the body of an OTLP/HTTP POST to /v1/metrics.
type otlpMetricsRequest struct {
	ResourceMetrics []otlpResourceMetrics `json:"resourceMetrics"`
}

// aggregationCumulative is AGGREGATION_TEMPORALITY_CUMULATIVE.
const aggregationCumulative = 2

// OTLP marshals a point-in-time snapshot of the registry as an OTLP/JSON
// ExportMetricsServiceRequest taken at now; start times come from the
// registry's creation (cumulative temporality). Metric ordering is sorted by
// name within each kind, so the document layout is deterministic.
func (r *Registry) OTLP(service string, now time.Time) ([]byte, error) {
	r.mu.Lock()
	created := r.created
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	vecs := make(map[string]*CounterVec, len(r.vecs))
	for k, v := range r.vecs {
		vecs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	infos := make(map[string]*Info, len(r.infos))
	for k, v := range r.infos {
		infos[k] = v
	}
	r.mu.Unlock()

	startNS := strconv.FormatInt(created.UnixNano(), 10)
	nowNS := strconv.FormatInt(now.UnixNano(), 10)
	var ms []otlpMetric

	for _, name := range sortedKeys(counters) {
		c := counters[name]
		ms = append(ms, otlpMetric{
			Name:        name,
			Description: c.help,
			Sum: &otlpSum{
				DataPoints: []otlpNumberPoint{{
					StartTimeUnixNano: startNS,
					TimeUnixNano:      nowNS,
					AsInt:             strconv.FormatInt(c.Value(), 10),
				}},
				AggregationTemporality: aggregationCumulative,
				IsMonotonic:            true,
			},
		})
	}
	for _, name := range sortedKeys(vecs) {
		v := vecs[name]
		v.mu.Lock()
		pts := make([]otlpNumberPoint, 0, len(v.children))
		for _, val := range sortedKeys(v.children) {
			pts = append(pts, otlpNumberPoint{
				Attributes:        []otlpMetricKV{metricAttrStr(v.label, val)},
				StartTimeUnixNano: startNS,
				TimeUnixNano:      nowNS,
				AsInt:             strconv.FormatInt(v.children[val].Value(), 10),
			})
		}
		v.mu.Unlock()
		if len(pts) == 0 {
			continue
		}
		ms = append(ms, otlpMetric{
			Name:        name,
			Description: v.help,
			Sum: &otlpSum{
				DataPoints:             pts,
				AggregationTemporality: aggregationCumulative,
				IsMonotonic:            true,
			},
		})
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		ms = append(ms, otlpMetric{
			Name:        name,
			Description: g.help,
			Gauge: &otlpGaugeMetric{DataPoints: []otlpNumberPoint{{
				TimeUnixNano: nowNS,
				AsInt:        strconv.FormatInt(g.Value(), 10),
			}}},
		})
	}
	for _, name := range sortedKeys(infos) {
		i := infos[name]
		ms = append(ms, otlpMetric{
			Name:        name,
			Description: i.help,
			Gauge: &otlpGaugeMetric{DataPoints: []otlpNumberPoint{{
				Attributes:   []otlpMetricKV{metricAttrStr(i.label, i.Value())},
				TimeUnixNano: nowNS,
				AsInt:        "1",
			}}},
		})
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		snap := h.snapshot()
		// bucketCounts has one more entry than explicitBounds: the final
		// bucket is the overflow above the last bound.
		counts := make([]string, len(snap.Buckets)+1)
		bounds := make([]float64, len(snap.Buckets))
		for i, n := range snap.Buckets {
			counts[i] = strconv.FormatInt(n, 10)
			bounds[i] = float64(bucketCeil(i))
		}
		counts[len(snap.Buckets)] = "0"
		pt := otlpHistogramPoint{
			StartTimeUnixNano: startNS,
			TimeUnixNano:      nowNS,
			Count:             strconv.FormatInt(snap.Count, 10),
			Sum:               float64(snap.Sum),
			BucketCounts:      counts,
			ExplicitBounds:    bounds,
			Max:               float64(snap.Max),
		}
		if snap.MaxSeq != 0 {
			pt.Exemplars = []otlpExemplar{{
				FilteredAttributes: []otlpMetricKV{metricAttrInt("empart.span_seq", snap.MaxSeq)},
				TimeUnixNano:       nowNS,
				AsInt:              strconv.FormatInt(snap.Max, 10),
			}}
		}
		unit := h.unit
		if unit == "blocks" {
			unit = "{blocks}" // UCUM annotation form for count-like units
		}
		ms = append(ms, otlpMetric{
			Name:        name,
			Description: strings.TrimSpace(h.help),
			Unit:        unit,
			Histogram: &otlpHistogramMetric{
				DataPoints:             []otlpHistogramPoint{pt},
				AggregationTemporality: aggregationCumulative,
			},
		})
	}

	req := otlpMetricsRequest{
		ResourceMetrics: []otlpResourceMetrics{{
			Resource: otlpMetricResource{Attributes: []otlpMetricKV{
				metricAttrStr("service.name", service),
			}},
			ScopeMetrics: []otlpScopeMetrics{{
				Scope:   otlpMetricScope{Name: "repro/internal/emio/metrics"},
				Metrics: ms,
			}},
		}},
	}
	return json.MarshalIndent(req, "", "  ")
}
