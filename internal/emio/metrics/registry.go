package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Registry holds a namespace of metrics. Registration is idempotent by name
// (a second registration of "x" returns the first instrument), so several
// subsystems can share one registry without coordination. Registration and
// scraping lock; recording through the returned instruments never does.
type Registry struct {
	mu       sync.Mutex
	created  time.Time // cumulative-temporality start time for OTLP export
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	infos    map[string]*Info
	vecs     map[string]*CounterVec
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		created:  time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		infos:    make(map[string]*Info),
		vecs:     make(map[string]*CounterVec),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{help: help}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{help: help}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the log-bucketed histogram registered under name,
// creating it on first use. unit names the observed quantity ("ns",
// "blocks") and is echoed in the help text.
func (r *Registry) Histogram(name, help, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{help: help, unit: unit}
		r.hists[name] = h
	}
	return h
}

// Info returns the string-valued gauge registered under name, creating it on
// first use; label is the Prometheus label key carrying the string.
func (r *Registry) Info(name, help, label string) *Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.infos[name]
	if i == nil {
		i = &Info{help: help, label: label}
		r.infos[name] = i
	}
	return i
}

// CounterVec is a family of counters distinguished by one label value (e.g.
// spans started per phase name). With is amortized one mutex-guarded map hit
// per distinct label — callers on hot paths cache the returned *Counter.
type CounterVec struct {
	help, label string
	mu          sync.Mutex
	children    map[string]*Counter
}

// CounterVec returns the labeled counter family registered under name,
// creating it on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vecs[name]
	if v == nil {
		v = &CounterVec{help: help, label: label, children: make(map[string]*Counter)}
		r.vecs[name] = v
	}
	return v
}

// With returns the child counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Snapshot is a point-in-time copy of every metric in a registry, safe to
// read while recording continues. Map keys are the registered names; for
// labeled counters the key is name{label="value"}.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	Infos      map[string]string
}

// Counter returns a counter (plain or labeled) by key, 0 when absent.
func (s Snapshot) Counter(key string) int64 { return s.Counters[key] }

// Gauge returns a gauge by name, 0 when absent.
func (s Snapshot) Gauge(key string) int64 { return s.Gauges[key] }

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Infos:      make(map[string]string, len(r.infos)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, v := range r.vecs {
		v.mu.Lock()
		for val, c := range v.children {
			s.Counters[fmt.Sprintf("%s{%s=%q}", name, v.label, val)] = c.Value()
		}
		v.mu.Unlock()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	for name, i := range r.infos {
		s.Infos[name] = i.Value()
	}
	return s
}

// sortedKeys returns the map's keys in sorted order (stable scrape output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
