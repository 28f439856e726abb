// Package obs is the engine's observability substrate: allocation-light
// atomic counters, gauges, and fixed-bucket latency histograms, collected
// in a Registry that renders the Prometheus text exposition format
// (version 0.0.4).
//
// The package exists so hot paths can be instrumented without paying for
// it: every update is one or two atomic operations on pre-registered
// metrics — no maps, no locks, no allocations — and a nil metrics handle
// disables instrumentation entirely (the callers' convention; see
// internal/topk). Label lookups on Vec types take a read lock and allocate
// only on the first observation of a new label value, so per-request label
// resolution on the HTTP surface stays cheap.
//
// Histograms use fixed, registration-time bucket bounds and support
// quantile extraction (p50/p95/p99 by linear interpolation within the
// containing bucket) for callers that want a number rather than a bucket
// vector.
//
// # Concurrency
//
// Every metric type and the Registry are safe for concurrent use. Counter
// values are monotonic; WritePrometheus may run concurrently with updates
// and observes each sample atomically (a histogram's bucket vector is read
// bucket-by-bucket, so a scrape racing an Observe may see a sum slightly
// ahead of the buckets — both remain monotonic across scrapes).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down. The stored value is a
// float64 (bit-cast), so Set accepts fractional readings.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; fine for low-frequency adjustments like
// in-flight tracking).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// roughly geometric. They cover both in-memory top-k latencies (sub-ms)
// and cold engine builds (seconds).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are upper-inclusive (Prometheus "le" semantics) and an implicit +Inf
// bucket catches the overflow.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Label is one constant name="value" pair for info-style metrics.
type Label struct {
	Name, Value string
}

// metricKind tags a family for the TYPE line.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one named metric family: a fixed-kind set of children keyed by
// label values (a single unlabeled child for plain metrics).
type family struct {
	name   string
	help   string
	kind   string
	labels []string // label names for vec families

	mu       sync.RWMutex
	children map[string]*child // guarded by mu
	order    []string          // guarded by mu; child keys in first-observation order

	// Func-backed families are sampled at scrape time.
	counterFn func() uint64
	gaugeFn   func() float64
	gaugeVec  func() map[string]float64 // label value -> reading (single label)
	constVal  float64
	constSet  []Label

	buckets []float64 // histogram families
}

type child struct {
	labels  []string // label values, parallel to family.labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is an ordered set of metric families. Register every family up
// front (at construction of the owning component); registration panics on
// duplicate or invalid names since that is a programming error, not an
// operational condition.
type Registry struct {
	mu     sync.Mutex
	fams   []*family          // guarded by mu
	byName map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // "le" is reserved for histogram buckets
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register validates and publishes a family. Plain (unlabeled) families
// arrive with their single child already in place so the family is
// complete the moment it becomes reachable; only vec families start with
// nil children, materialized on first With.
//
//seda:nolock: f is construction-private until published in byName/fams below
func (r *Registry) register(f *family) *family {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q already registered", f.name))
	}
	if f.children == nil {
		f.children = make(map[string]*child)
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// NewCounter registers and returns a plain counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter,
		children: map[string]*child{"": {counter: c}}, order: []string{""}})
	return c
}

// NewCounterFunc registers a counter whose value is sampled at scrape time.
// fn must be monotonic for the exposition to stay a valid counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// NewCounterVec registers a labeled counter family; children materialize on
// first With.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: NewCounterVec needs at least one label")
	}
	f := r.register(&family{name: name, help: help, kind: kindCounter, labels: labels})
	return &CounterVec{f: f}
}

// NewGauge registers and returns a plain gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge,
		children: map[string]*child{"": {gauge: g}}, order: []string{""}})
	return g
}

// NewGaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// NewGaugeVecFunc registers a single-label gauge family sampled at scrape
// time: fn returns label value → reading, rendered in sorted label order.
func (r *Registry) NewGaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	if !validLabelName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q on %q", label, name))
	}
	r.register(&family{name: name, help: help, kind: kindGauge, labels: []string{label}, gaugeVec: fn})
}

// NewInfo registers a constant gauge with value 1 and fixed labels — the
// build_info idiom for exposing version strings.
func (r *Registry) NewInfo(name, help string, labels ...Label) {
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Name, name))
		}
	}
	r.register(&family{name: name, help: help, kind: kindGauge, constVal: 1, constSet: labels})
}

// NewHistogram registers and returns a plain histogram over the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: kindHist, buckets: buckets,
		children: map[string]*child{"": {hist: h}}, order: []string{""}})
	return h
}

// NewHistogramVec registers a labeled histogram family (nil buckets =
// DefBuckets); children materialize on first With.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: NewHistogramVec needs at least one label")
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{name: name, help: help, kind: kindHist, labels: labels, buckets: buckets})
	return &HistogramVec{f: f}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). len(values) must equal the registered label count.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values).counter
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values).hist
}

// childKey joins label values with an unprintable separator; label values
// containing the separator cannot collide with a different split because
// the count is fixed.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labels: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHist:
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// --- exposition ---

// escapeLabel escapes a label value per the text format: backslash, quote,
// and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for the given names/values, appending
// extra pairs (the histogram "le") at the end. Returns "" for no labels.
func labelString(names, values []string, extra ...Label) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for i := range names {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, names[i], escapeLabel(values[i]))
		n++
	}
	for _, l := range extra {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabel(l.Value))
		n++
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in registration order as Prometheus
// text exposition format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.counterFn != nil:
		fmt.Fprintf(b, "%s %s\n", f.name, strconv.FormatUint(f.counterFn(), 10))
		return
	case f.gaugeFn != nil:
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		return
	case f.gaugeVec != nil:
		m := f.gaugeVec()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, []string{k}), formatFloat(m[k]))
		}
		return
	case f.constSet != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(nil, nil, f.constSet...), formatFloat(f.constVal))
		return
	}
	f.mu.RLock()
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	for _, c := range children {
		ls := labelString(f.labels, c.labels)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, ls, strconv.FormatUint(c.counter.Value(), 10))
		case kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, ls, formatFloat(c.gauge.Value()))
		case kindHist:
			var cum uint64
			for i, bound := range c.hist.bounds {
				cum += c.hist.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labels, Label{"le", formatFloat(bound)}), cum)
			}
			cum += c.hist.counts[len(c.hist.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.labels, Label{"le", "+Inf"}), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, ls, formatFloat(c.hist.Sum()))
			// _count is derived from the cumulative +Inf bucket rather than
			// the count atomic so a scrape racing Observe stays internally
			// consistent (count == +Inf bucket always holds on the wire).
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, ls, cum)
		}
	}
}
