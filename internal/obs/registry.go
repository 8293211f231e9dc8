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
)

// Histogram is one fixed-bucket child of a histogram family (see
// Registry.Histograms). Buckets are cumulative on export,
// Prometheus-style. Safe for concurrent use.
type Histogram struct {
	bounds []float64 // finite inclusive upper bounds, ascending
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets snapshots the histogram: its finite upper bounds and the
// per-bucket (not cumulative) counts, one longer than bounds — the last
// count is the +Inf bucket. The shape HistQuantile takes; bounds
// aliases the histogram's own slice and must not be modified.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// HistQuantile estimates the q-quantile of a fixed-bucket histogram by
// linear interpolation within the containing bucket. bounds are the
// finite inclusive upper bounds, ascending; counts holds one count per
// bound plus a final +Inf bucket, which reports its lower bound. An
// empty histogram yields 0.
func HistQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			if c == 0 {
				return bounds[i]
			}
			return lo + (rank-float64(cum))/float64(c)*(bounds[i]-lo)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name, help string
	kind       metricKind
	counterFn  func() int64
	gaugeFn    func() float64
	samplesFn  func() []LabeledSample
	// A histogram family's children: hists[i] carries label=values[i].
	label  string
	values []string
	hists  []*Histogram
}

// Label is one name="value" pair on a labeled sample.
type Label struct {
	Name, Value string
}

// LabeledSample is one sample of a labeled metric family, produced at
// scrape time. Labels render in the order given; families should emit a
// fixed label order across samples so scrapes are deterministic.
type LabeledSample struct {
	Labels []Label
	Value  float64
}

// Registry holds named metrics and renders them as Prometheus text
// exposition format. Registration is idempotent by name: asking for an
// existing name of the same kind returns the existing metric; a kind
// mismatch or an invalid name panics (programmer error, caught by any
// test that touches the path).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, kind metricKind) *metric {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	return m
}

// CounterFunc registers a counter whose value is read at scrape time —
// for mirroring counters that already live elsewhere (e.g. the serving
// stats atomics).
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	m := r.register(name, help, kindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	m.counterFn = f
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	m := r.register(name, help, kindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	m.gaugeFn = f
}

// LabeledCounterFunc registers a counter family whose labeled samples
// are produced at scrape time — for label sets (reload outcomes, delta
// op kinds) read from state kept elsewhere. Every sample must carry the
// same label names in the same order; values must be non-decreasing
// per label set (counter semantics are the caller's contract).
func (r *Registry) LabeledCounterFunc(name, help string, f func() []LabeledSample) {
	m := r.register(name, help, kindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.counterFn != nil {
		panic(fmt.Sprintf("obs: metric %q already registered without labels", name))
	}
	m.samplesFn = f
}

// LabeledGaugeFunc registers a gauge family whose labeled samples are
// produced at scrape time.
func (r *Registry) LabeledGaugeFunc(name, help string, f func() []LabeledSample) {
	m := r.register(name, help, kindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gaugeFn != nil {
		panic(fmt.Sprintf("obs: metric %q already registered without labels", name))
	}
	m.samplesFn = f
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// escapeLabelValue applies the text-exposition escaping for quoted
// label values: backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writeLabeledSamples renders one family's labeled samples.
func writeLabeledSamples(b *strings.Builder, name string, samples []LabeledSample) {
	for _, s := range samples {
		b.WriteString(name)
		if len(s.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range s.Labels {
				if !validLabelName(l.Name) {
					panic(fmt.Sprintf("obs: metric %q sample has invalid label name %q", name, l.Name))
				}
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Name)
				b.WriteString(`="`)
				b.WriteString(escapeLabelValue(l.Value))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.Value))
		b.WriteByte('\n')
	}
}

// Histograms returns the named histogram family: one child per value of
// its one label, in values order, each with the given finite upper
// bounds (ascending; the +Inf bucket is implicit). The children are
// created on first use, so every value is exported from the first
// scrape.
func (r *Registry) Histograms(name, help string, bounds []float64, label string, values []string) []*Histogram {
	if !validLabelName(label) || label == "le" {
		panic(fmt.Sprintf("obs: histogram %q has invalid label name %q", name, label))
	}
	m := r.register(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.hists == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		m.label, m.values = label, append([]string(nil), values...)
		for range values {
			m.hists = append(m.hists, &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)})
		}
	}
	return m.hists
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			if m.samplesFn != nil {
				writeLabeledSamples(&b, m.name, m.samplesFn())
				continue
			}
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counterFn())
		case kindGauge:
			if m.samplesFn != nil {
				writeLabeledSamples(&b, m.name, m.samplesFn())
			} else {
				fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gaugeFn()))
			}
		case kindHistogram:
			for i, h := range m.hists {
				lv := m.label + `="` + escapeLabelValue(m.values[i]) + `"`
				var cum int64
				for j, bound := range h.bounds {
					cum += h.counts[j].Load()
					fmt.Fprintf(&b, "%s_bucket{%s,le=%q} %d\n", m.name, lv, formatFloat(bound), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket{%s,le=\"+Inf\"} %d\n", m.name, lv, cum)
				fmt.Fprintf(&b, "%s_sum{%s} %s\n", m.name, lv, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count{%s} %d\n", m.name, lv, h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
