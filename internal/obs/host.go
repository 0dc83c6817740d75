package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"maxwarp/internal/report"
)

// Host-side metrics. The sharded Counter above is built for kernel-side
// accounting, where the simulator guarantees one goroutine per SM shard; a
// long-running service needs the opposite contract — many request-handling
// goroutines hammering the same counter concurrently. HostMetrics provides
// that: atomic counters (optionally labeled), function-backed gauges, and
// power-of-two latency histograms, all safe for unsynchronized concurrent
// use and rendered through the same report.MetricFamily pipeline as the
// rest of the observability layer.

// HostCounter is one monotonically increasing atomic counter.
type HostCounter struct {
	v atomic.Int64
}

// Add increments the counter. Safe for concurrent use.
func (c *HostCounter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one. Safe for concurrent use.
func (c *HostCounter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *HostCounter) Value() int64 { return c.v.Load() }

// HostCounterVec is a family of HostCounters keyed by label values.
type HostCounterVec struct {
	name   string
	help   string
	labels []string

	mu   sync.Mutex
	kids map[string]*vecChild
}

type vecChild struct {
	values []string
	c      HostCounter
}

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it on first use.
func (v *HostCounterVec) With(values ...string) *HostCounter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: counter %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	kid, ok := v.kids[key]
	if !ok {
		kid = &vecChild{values: append([]string(nil), values...)}
		v.kids[key] = kid
	}
	return &kid.c
}

// Value returns the child's current total, zero if that child was never
// touched.
func (v *HostCounterVec) Value(values ...string) int64 {
	return v.With(values...).Value()
}

func labelKey(values []string) string {
	key := ""
	for _, s := range values {
		key += strconv.Itoa(len(s)) + ":" + s
	}
	return key
}

// HostGauge is a function-backed gauge: the value is read at scrape time.
type HostGauge struct {
	name string
	help string
	fn   func() float64
}

// HostGaugeVec is a family of function-backed gauges keyed by label values
// (e.g. one breaker-state gauge per device).
type HostGaugeVec struct {
	name   string
	help   string
	labels []string

	mu   sync.Mutex
	kids map[string]*gaugeChild
}

type gaugeChild struct {
	values []string
	fn     func() float64
}

// Register installs fn as the child gauge for the given label values; fn is
// called at scrape time and must be safe for concurrent use. Re-registering
// the same label values replaces the function.
func (v *HostGaugeVec) Register(fn func() float64, values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: gauge %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.kids[labelKey(values)] = &gaugeChild{values: append([]string(nil), values...), fn: fn}
}

// HostHistBuckets is the fixed bucket count of a HostHist: powers of two
// from 1 up to 2^(HostHistBuckets-2), plus a +Inf overflow bucket.
const HostHistBuckets = 32

// HostHist is a concurrency-safe histogram with power-of-two buckets,
// matching the shape of the simulator's per-launch ProfileHist. Observe
// values in whatever integer unit the name advertises (microseconds for
// latencies).
type HostHist struct {
	buckets [HostHistBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value. Safe for concurrent use.
func (h *HostHist) Observe(v int64) {
	h.buckets[hostBucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *HostHist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *HostHist) Sum() int64 { return h.sum.Load() }

// hostBucketIndex maps v to its bucket: bucket i holds values in
// (2^(i-1), 2^i] with bucket 0 holding v <= 1, and the last bucket
// everything larger than 2^(HostHistBuckets-2).
func hostBucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := 64 - bits.LeadingZeros64(uint64(v-1))
	if i >= HostHistBuckets-1 {
		return HostHistBuckets - 1
	}
	return i
}

// hostBucketUpperBound returns bucket i's inclusive upper bound, or -1 for
// the +Inf overflow bucket.
func hostBucketUpperBound(i int) int64 {
	if i >= HostHistBuckets-1 {
		return -1
	}
	return int64(1) << i
}

// HostHistVec is a family of HostHists keyed by label values.
type HostHistVec struct {
	name   string
	help   string
	labels []string

	mu   sync.Mutex
	kids map[string]*histChild
}

type histChild struct {
	values []string
	h      HostHist
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (v *HostHistVec) With(values ...string) *HostHist {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: histogram %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	kid, ok := v.kids[key]
	if !ok {
		kid = &histChild{values: append([]string(nil), values...)}
		v.kids[key] = kid
	}
	return &kid.h
}

// HostMetrics is a registry of host-side metrics. Registration takes a
// lock; the metrics themselves are atomic.
type HostMetrics struct {
	mu        sync.Mutex
	counters  map[string]*hostNamed[*HostCounter]
	vecs      map[string]*HostCounterVec
	gauges    map[string]*HostGauge
	gaugeVecs map[string]*HostGaugeVec
	hists     map[string]*hostNamed[*HostHist]
	histVecs  map[string]*HostHistVec
	order     []string
}

type hostNamed[T any] struct {
	name string
	help string
	v    T
}

// NewHostMetrics creates an empty host-side registry.
func NewHostMetrics() *HostMetrics {
	return &HostMetrics{
		counters:  make(map[string]*hostNamed[*HostCounter]),
		vecs:      make(map[string]*HostCounterVec),
		gauges:    make(map[string]*HostGauge),
		gaugeVecs: make(map[string]*HostGaugeVec),
		hists:     make(map[string]*hostNamed[*HostHist]),
		histVecs:  make(map[string]*HostHistVec),
	}
}

func (m *HostMetrics) register(name string) {
	if err := report.CheckMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	m.order = append(m.order, name)
}

// Counter returns the registered counter, creating it on first use.
func (m *HostMetrics) Counter(name, help string) *HostCounter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.counters[name]; ok {
		return c.v
	}
	m.register(name)
	c := &hostNamed[*HostCounter]{name: name, help: help, v: &HostCounter{}}
	m.counters[name] = c
	return c.v
}

// CounterVec returns the registered labeled counter family, creating it on
// first use. The label names of the first registration win.
func (m *HostMetrics) CounterVec(name, help string, labels ...string) *HostCounterVec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vecs[name]; ok {
		return v
	}
	m.register(name)
	v := &HostCounterVec{name: name, help: help, labels: append([]string(nil), labels...), kids: make(map[string]*vecChild)}
	m.vecs[name] = v
	return v
}

// Gauge registers a function-backed gauge; fn is called at scrape time and
// must be safe for concurrent use.
func (m *HostMetrics) Gauge(name, help string, fn func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.gauges[name]; ok {
		return
	}
	m.register(name)
	m.gauges[name] = &HostGauge{name: name, help: help, fn: fn}
}

// GaugeVec returns the registered labeled gauge family, creating it on
// first use; attach children with Register.
func (m *HostMetrics) GaugeVec(name, help string, labels ...string) *HostGaugeVec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.gaugeVecs[name]; ok {
		return v
	}
	m.register(name)
	v := &HostGaugeVec{name: name, help: help, labels: append([]string(nil), labels...), kids: make(map[string]*gaugeChild)}
	m.gaugeVecs[name] = v
	return v
}

// Histogram returns the registered histogram, creating it on first use.
func (m *HostMetrics) Histogram(name, help string) *HostHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hists[name]; ok {
		return h.v
	}
	m.register(name)
	h := &hostNamed[*HostHist]{name: name, help: help, v: &HostHist{}}
	m.hists[name] = h
	return h.v
}

// HistogramVec returns the registered labeled histogram family, creating it
// on first use.
func (m *HostMetrics) HistogramVec(name, help string, labels ...string) *HostHistVec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.histVecs[name]; ok {
		return v
	}
	m.register(name)
	v := &HostHistVec{name: name, help: help, labels: append([]string(nil), labels...), kids: make(map[string]*histChild)}
	m.histVecs[name] = v
	return v
}

// Families renders every registered metric as Prometheus metric families,
// sorted by name, with labeled children sorted by label values — a
// deterministic snapshot regardless of registration or touch order.
func (m *HostMetrics) Families() []report.MetricFamily {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := append([]string(nil), m.order...)
	sort.Strings(names)
	var fams []report.MetricFamily
	for _, name := range names {
		switch {
		case m.counters[name] != nil:
			c := m.counters[name]
			fams = append(fams, report.MetricFamily{
				Name: c.name, Help: c.help, Type: "counter",
				Samples: []report.Sample{{Value: float64(c.v.Value())}},
			})
		case m.vecs[name] != nil:
			fams = append(fams, m.vecs[name].family())
		case m.gauges[name] != nil:
			g := m.gauges[name]
			fams = append(fams, report.MetricFamily{
				Name: g.name, Help: g.help, Type: "gauge",
				Samples: []report.Sample{{Value: g.fn()}},
			})
		case m.gaugeVecs[name] != nil:
			fams = append(fams, m.gaugeVecs[name].family())
		case m.hists[name] != nil:
			h := m.hists[name]
			fams = append(fams, hostHistFamily(h.name, h.help, nil, h.v))
		case m.histVecs[name] != nil:
			fams = append(fams, m.histVecs[name].families()...)
		}
	}
	return fams
}

// PromText renders the registry in the Prometheus text format.
func (m *HostMetrics) PromText() (string, error) {
	text, err := report.PromText(m.Families())
	if err != nil {
		return "", fmt.Errorf("obs: %w", err)
	}
	return text, nil
}

func (v *HostCounterVec) family() report.MetricFamily {
	v.mu.Lock()
	kids := make([]*vecChild, 0, len(v.kids))
	for _, kid := range v.kids {
		kids = append(kids, kid)
	}
	v.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return labelKey(kids[i].values) < labelKey(kids[j].values) })
	f := report.MetricFamily{Name: v.name, Help: v.help, Type: "counter"}
	for _, kid := range kids {
		f.Samples = append(f.Samples, report.Sample{
			Labels: pairLabels(v.labels, kid.values),
			Value:  float64(kid.c.Value()),
		})
	}
	return f
}

func (v *HostGaugeVec) family() report.MetricFamily {
	v.mu.Lock()
	kids := make([]*gaugeChild, 0, len(v.kids))
	for _, kid := range v.kids {
		kids = append(kids, kid)
	}
	v.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return labelKey(kids[i].values) < labelKey(kids[j].values) })
	f := report.MetricFamily{Name: v.name, Help: v.help, Type: "gauge"}
	for _, kid := range kids {
		f.Samples = append(f.Samples, report.Sample{
			Labels: pairLabels(v.labels, kid.values),
			Value:  kid.fn(),
		})
	}
	return f
}

// families renders the labeled histograms as one family: every child's
// cumulative buckets and stat samples carry its label values, so the text
// format stays free of duplicate family names.
func (v *HostHistVec) families() []report.MetricFamily {
	v.mu.Lock()
	kids := make([]*histChild, 0, len(v.kids))
	for _, kid := range v.kids {
		kids = append(kids, kid)
	}
	v.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool { return labelKey(kids[i].values) < labelKey(kids[j].values) })
	f := report.MetricFamily{Name: v.name, Help: v.help, Type: "histogram"}
	for _, kid := range kids {
		child := hostHistFamily(v.name, v.help, pairLabels(v.labels, kid.values), &kid.h)
		f.Samples = append(f.Samples, child.Samples...)
	}
	return []report.MetricFamily{f}
}

func pairLabels(names, values []string) []report.Label {
	out := make([]report.Label, len(names))
	for i := range names {
		out[i] = report.Label{Name: names[i], Value: values[i]}
	}
	return out
}

// hostHistFamily renders a HostHist in the same shape obs uses for the
// simulator's ProfileHists: cumulative le-labeled buckets plus stat="sum"
// and stat="count" samples folded into one family.
func hostHistFamily(name, help string, base []report.Label, h *HostHist) report.MetricFamily {
	f := report.MetricFamily{Name: name, Help: help, Type: "histogram"}
	var cum int64
	for i := 0; i < HostHistBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if ub := hostBucketUpperBound(i); ub >= 0 {
			le = strconv.FormatInt(ub, 10)
		}
		f.Samples = append(f.Samples, report.Sample{
			Labels: append(append([]report.Label(nil), base...), report.Label{Name: "le", Value: le}),
			Value:  float64(cum),
		})
	}
	f.Samples = append(f.Samples,
		report.Sample{Labels: append(append([]report.Label(nil), base...), report.Label{Name: "stat", Value: "sum"}), Value: float64(h.Sum())},
		report.Sample{Labels: append(append([]report.Label(nil), base...), report.Label{Name: "stat", Value: "count"}), Value: float64(h.Count())},
	)
	return f
}
