// Package metrics is the observability substrate every binary in the
// fleet scrapes through: counter, gauge and histogram primitives on
// sync/atomic, a Registry that renders them in the Prometheus text
// exposition format, and the two conventions every family follows —
// one bucket schedule for durations (TimeBuckets) and status codes
// collapsed to classes (StatusClass). It imports only the standard
// library, so any package may own metric families: pedd's pedd_ ones
// live in internal/server, the gateway's pedgw_ ones in
// internal/cluster, the HTTP edge's in internal/httpedge.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// timeBuckets is the shared histogram schedule for durations, in
// seconds: 100µs to ~10s, roughly ×2.5 per step. Interactive-tool
// latencies (the paper's sub-second budget) land mid-scale.
var timeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// TimeBuckets returns the shared duration-bucket schedule, so every
// registry's histograms have the same shape.
func TimeBuckets() []float64 {
	out := make([]float64, len(timeBuckets))
	copy(out, timeBuckets)
	return out
}

// StatusClass collapses an HTTP status to its class label ("2xx".."5xx",
// "other") — the bounded-cardinality form every registry labels by.
func StatusClass(status int) string {
	if status >= 100 && status < 600 {
		return strconv.Itoa(status/100) + "xx"
	}
	return "other"
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative le-buckets and keeps
// the running sum, Prometheus-style. Observations are lock-free; a
// scrape that races an Observe may see the buckets one observation
// ahead of the sum, which monitoring tolerates by design.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// vec is a family of metrics split by label values: one labelled map
// behind the three exported names below.
type vec[T any] struct {
	mu    sync.RWMutex
	m     map[string]*T
	child func() *T
}

// CounterVec is a family of counters split by label values.
type CounterVec = vec[Counter]

// GaugeVec is a family of gauges split by label values.
type GaugeVec = vec[Gauge]

// HistogramVec is a family of histograms split by label values.
type HistogramVec = vec[Histogram]

// With returns the child for the given label values, creating it on
// first use. Values must match the family's label names in count and
// order.
func (v *vec[T]) With(values ...string) *T {
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[key]; c != nil {
		return c
	}
	c = v.child()
	v.m[key] = c
	return c
}

// family is one named metric with its exposition metadata; write
// renders its sample lines.
type family struct {
	name, help, kind string
	write            func(w io.Writer)
}

// Registry is a set of named metric families rendered together. It is
// append-only: constructors register a family and return its handle.
type Registry struct {
	families []family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.families = append(r.families, family{name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	}})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.families = append(r.families, family{name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	}})
	return g
}

// Histogram registers and returns a histogram with the given buckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.families = append(r.families, family{name, help, "histogram", func(w io.Writer) {
		writeHistogram(w, name, "", h)
	}})
	return h
}

// addVec registers a labeled family whose children sample renders, in
// sorted label order.
func addVec[T any](r *Registry, name, help, kind string, labels []string, child func() *T, sample func(w io.Writer, labels string, c *T)) *vec[T] {
	v := &vec[T]{m: map[string]*T{}, child: child}
	r.families = append(r.families, family{name, help, kind, func(w io.Writer) {
		v.mu.RLock()
		defer v.mu.RUnlock()
		for _, key := range sortedKeys(v.m) {
			sample(w, promLabels(labels, key), v.m[key])
		}
	}})
	return v
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return addVec(r, name, help, "counter", labels, func() *Counter { return &Counter{} },
		func(w io.Writer, l string, c *Counter) { fmt.Fprintf(w, "%s{%s} %d\n", name, l, c.Value()) })
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return addVec(r, name, help, "gauge", labels, func() *Gauge { return &Gauge{} },
		func(w io.Writer, l string, g *Gauge) { fmt.Fprintf(w, "%s{%s} %d\n", name, l, g.Value()) })
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return addVec(r, name, help, "histogram", labels, func() *Histogram { return newHistogram(bounds) },
		func(w io.Writer, l string, h *Histogram) { writeHistogram(w, name, l, h) })
}

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order
// and label children in sorted order, so output is deterministic for
// a quiescent registry.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.write(bw)
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeHistogram emits the cumulative buckets, sum, and count of one
// histogram child. labels is the pre-rendered label list without
// braces ("" for an unlabeled histogram).
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promLabels renders `name="value",...` for one vec child key.
func promLabels(names []string, key string) string {
	values := strings.Split(key, "\xff")
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
