// Package obs is the stdlib-only observability subsystem: a metrics
// registry of atomic counters, gauges, and log-bucketed latency
// histograms; a lightweight span/stopwatch API for timing the stages of a
// hot path; a Prometheus text-format exposition writer; an HTTP middleware
// recording per-endpoint traffic; and a background collector of Go
// runtime health gauges.
//
// The paper's efficiency study (Table 5, Figures 5–6) measures per-stage
// linking cost offline; this package makes the same breakdown visible on a
// live serving system, which is the prerequisite for any further
// performance work on the Eq. 1 pipeline.
//
// Metric naming follows the Prometheus convention
//
//	microlink_<subsystem>_<name>_<unit>
//
// e.g. microlink_linker_stage_seconds, microlink_http_requests_total,
// microlink_reach_queries_total. Registries hand out one instance per
// metric name: asking twice for the same name returns the same metric, so
// independent components can share a registry without coordination.
//
// Hot-path cost model: updating a counter or observing into a histogram is
// one or two atomic operations and never allocates; label resolution
// (Vec.With) is a read-locked map lookup, so resolve children once and
// retain them where nanoseconds matter. All types are safe for concurrent
// use. Metric methods are nil-receiver-safe, and a nil registry hands out
// nil instruments, so instrumentation is compiled in unconditionally and
// enabled by passing a registry to the component's constructor.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry.
// Registry metrics lookups nest registry → family when a family must be
// created on first use; exposition deliberately copies the family list
// out under the registry lock before touching family locks.
//
// microlint:lock-order obs-registry < obs-family
type Registry struct {
	mu       sync.RWMutex       // microlint:lock-order obs-registry
	families map[string]*family // microlint:guarded-by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed type, help string, and label
// schema; children are the per-label-value instances (a single anonymous
// child when the family has no labels).
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram upper bounds; nil otherwise

	mu       sync.RWMutex      // microlint:lock-order obs-family
	children map[string]*child // microlint:guarded-by mu
}

// child is one (label values → metric) instance of a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

const labelSep = "\xff"

// lookup returns the family registered under name, creating it on first
// use. A name collision with a different type or label schema panics: that
// is a wiring bug, not a runtime condition.
func (r *Registry) lookup(name, help string, typ metricType, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor resolves (creating on first use) the child for the given label
// values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok = f.children[key]; ok {
		return ch
	}
	// Build the child completely in a private local and publish it into
	// the map only once immutable: lock-free readers that got it from the
	// fast path above must never observe a half-built child.
	nc := &child{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		nc.c = &Counter{}
	case typeGauge:
		nc.g = &Gauge{}
	default:
		nc.h = newHistogram(f.buckets)
	}
	f.children[key] = nc
	return nc
}

// sortedChildren returns the family's children in deterministic
// (label-value) order, for exposition.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	f.mu.RUnlock()
	return out
}

// Counter returns the label-less counter registered under name. This and
// the five constructors below return a nil (no-op) instrument on a nil
// registry, so a component built without one records nothing and needs
// no branch of its own.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, nil).childFor(nil).c
}

// CounterVec returns the counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.lookup(name, help, typeCounter, nil, labels)}
}

// Gauge returns the label-less gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, nil).childFor(nil).g
}

// GaugeVec returns the gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.lookup(name, help, typeGauge, nil, labels)}
}

// Histogram returns the label-less histogram registered under name.
// buckets are the upper bounds (ascending); nil selects DefTimeBuckets.
// Bucket bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeHistogram, normBuckets(buckets), nil).childFor(nil).h
}

// HistogramVec returns the histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{fam: r.lookup(name, help, typeHistogram, normBuckets(buckets), labels)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values. Nil-safe: a nil vec
// yields a nil (no-op) counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.childFor(values).c
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.childFor(values).g
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.childFor(values).h
}

// Snapshots returns a consistent-enough view of every child keyed by its
// joined label values (single-label vecs key directly by the value).
func (v *HistogramVec) Snapshots() map[string]HistogramSnapshot {
	if v == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot)
	for _, ch := range v.fam.sortedChildren() {
		out[strings.Join(ch.values, ",")] = ch.h.Snapshot()
	}
	return out
}

// validName reports whether s is a legal Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
