// Package telemetry is the dependency-free observability layer of the
// distributed simulation fleet: an atomic metrics registry (counters, gauges,
// fixed-bucket histograms, Prometheus text exposition), a lightweight tracing
// API whose span contexts propagate across the wire inside subtask messages,
// a structured JSON event logger, and the /metrics + /healthz + /debug/pprof
// ops endpoints the fleet binaries serve.
//
// Design constraints, in order: zero allocation on the hot path (metrics are
// pre-registered once, updates are single atomic ops), zero external
// dependencies (stdlib only), and zero effect on simulation output —
// instrumentation observes, it never participates.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, fixed at registration time. Hot-path updates
// never format or look up labels: a (name, labels) pair is resolved to a
// child metric exactly once, when it is registered.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is usable (a
// detached counter not attached to any registry).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
// The zero value is usable.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are cumulative upper bounds
// (Prometheus "le" semantics); a +Inf bucket is implicit. The zero value is
// NOT usable — bounds must be set — so histograms are always built through a
// Registry or NewHistogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram creates a detached histogram with the given upper bounds
// (sorted ascending; an empty slice leaves only the +Inf bucket).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	slices.Sort(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~16): linear scan beats binary search in practice
	// and stays allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets are the default seconds-scale bounds for latency
// histograms: 100µs up to ~100s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// Kind discriminates metric families.
type Kind string

// Metric family kinds (Prometheus TYPE names).
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// family is one named metric with its registered children (one per label
// set).
type family struct {
	name     string
	help     string
	kind     Kind
	bounds   []float64
	children map[string]*child
}

type child struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a process's (or role's) metric families. All methods are
// safe for concurrent use; registration takes a lock, metric updates do not.
// A nil *Registry is valid everywhere and hands out detached metrics, so
// instrumented code never has to branch on "telemetry enabled".
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Counter registers (or fetches) the counter name with the given label set.
// Re-registering the same (name, labels) returns the same counter, so
// restarts of a component keep accumulating into one series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	ch := r.child(name, help, KindCounter, nil, labels)
	return ch.c
}

// Gauge registers (or fetches) the gauge name with the given label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	ch := r.child(name, help, KindGauge, nil, labels)
	return ch.g
}

// Histogram registers (or fetches) the histogram name with the given bucket
// upper bounds and label set. All children of one family share the first
// registration's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	ch := r.child(name, help, KindHistogram, bounds, labels)
	return ch.h
}

func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

func (r *Registry) child(name, help string, kind Kind, bounds []float64, labels []Label) *child {
	ls := append([]Label(nil), labels...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	sig := labelSig(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		if kind == KindHistogram {
			b := append([]float64(nil), bounds...)
			slices.Sort(b)
			f.bounds = b
		}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	ch, ok := f.children[sig]
	if !ok {
		ch = &child{labels: ls}
		switch kind {
		case KindCounter:
			ch.c = &Counter{}
		case KindGauge:
			ch.g = &Gauge{}
		case KindHistogram:
			ch.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.children[sig] = ch
	}
	return ch
}

// Bucket is one histogram bucket in a snapshot: the count of samples ≤
// UpperBound (non-cumulative per bucket; rendering accumulates).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// Series is one metric series (family + label set) frozen at Gather time.
type Series struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   Kind    `json:"kind"`
	Labels []Label `json:"labels,omitempty"`

	// Counter/gauge value.
	Value float64 `json:"value,omitempty"`

	// Histogram fields.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// key identifies a series for merging.
func (s Series) key() string { return s.Name + "\x00" + labelSig(s.Labels) }

// Snapshot is a point-in-time copy of a registry's series, sorted by name
// then label signature. Snapshots from several registries (one per worker)
// merge into a fleet-wide view with Merge.
type Snapshot []Series

// Gather freezes every series in the registry. A nil registry gathers
// nothing.
func (r *Registry) Gather() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Snapshot
	for _, f := range r.fams {
		for _, ch := range f.children {
			s := Series{Name: f.name, Help: f.help, Kind: f.kind, Labels: ch.labels}
			switch f.kind {
			case KindCounter:
				s.Value = float64(ch.c.Value())
			case KindGauge:
				s.Value = ch.g.Value()
			case KindHistogram:
				s.Count = ch.h.Count()
				s.Sum = ch.h.Sum()
				for i := range ch.h.counts {
					ub := math.Inf(1)
					if i < len(f.bounds) {
						ub = f.bounds[i]
					}
					s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: ch.h.counts[i].Load()})
				}
			}
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Series) int { return strings.Compare(a.key(), b.key()) })
	return out
}

// Merge sums o into a copy of s: series with the same name and labels are
// added together (counters, histograms) or summed (gauges — fleet gauges are
// additive, e.g. queue depth per process); series unique to either side are
// kept. The result is sorted like Gather output.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	byKey := make(map[string]int, len(s))
	var out Snapshot
	for _, ser := range s {
		ser.Buckets = append([]Bucket(nil), ser.Buckets...)
		out = append(out, ser)
		byKey[ser.key()] = len(out) - 1
	}
	for _, ser := range o {
		if i, ok := byKey[ser.key()]; ok && out[i].Kind == ser.Kind {
			dst := &out[i]
			dst.Value += ser.Value
			dst.Count += ser.Count
			dst.Sum += ser.Sum
			if len(dst.Buckets) == len(ser.Buckets) {
				for b := range dst.Buckets {
					dst.Buckets[b].Count += ser.Buckets[b].Count
				}
			}
			continue
		}
		ser.Buckets = append([]Bucket(nil), ser.Buckets...)
		out = append(out, ser)
		byKey[ser.key()] = len(out) - 1
	}
	slices.SortFunc(out, func(a, b Series) int { return strings.Compare(a.key(), b.key()) })
	return out
}

// Find returns the first series with the given name and labels (order
// insensitive), or a zero Series and false.
func (s Snapshot) Find(name string, labels ...Label) (Series, bool) {
	ls := append([]Label(nil), labels...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	key := name + "\x00" + labelSig(ls)
	for _, ser := range s {
		if ser.key() == key {
			return ser, true
		}
	}
	return Series{}, false
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, ser := range s {
		if ser.Name != lastName {
			if ser.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ser.Name, ser.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ser.Name, ser.Kind); err != nil {
				return err
			}
			lastName = ser.Name
		}
		switch ser.Kind {
		case KindHistogram:
			cum := int64(0)
			for _, b := range ser.Buckets {
				cum += b.Count
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", ser.Name, renderLabels(ser.Labels, Label{"le", le}), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", ser.Name, renderLabels(ser.Labels), formatFloat(ser.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", ser.Name, renderLabels(ser.Labels), ser.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", ser.Name, renderLabels(ser.Labels), formatFloat(ser.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
