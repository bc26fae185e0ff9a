package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process's set of metric families, rendered in
// registration order by one writer (WriteMetrics) that the federation
// endpoint shares. It holds four shapes, which are all the daemon and
// the coordinator need: counters the process owns, labeled counters,
// values sampled at scrape time (gauges and counters another component
// owns), and per-label duration histograms.
//
// Labeled families with no series are omitted from the exposition;
// labeled counter series, once created (or seeded), are never deleted,
// so every series stays present and monotonic for the life of the
// process.
type Registry struct {
	mu   sync.Mutex
	fams []regFamily
}

type regFamily struct {
	name, help, typ string
	collect         func() []Sample
}

func (r *Registry) add(name, help, typ string, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.name == name {
			panic("obs: duplicate metric family " + name)
		}
	}
	r.fams = append(r.fams, regFamily{name, help, typ, collect})
}

// Write samples every family and renders them in registration order,
// skipping families that currently have no series.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	fams := append([]regFamily(nil), r.fams...)
	r.mu.Unlock()
	out := make([]*Family, 0, len(fams))
	for _, f := range fams {
		if samples := f.collect(); len(samples) > 0 {
			out = append(out, &Family{Name: f.name, Help: f.help, Type: f.typ, Samples: samples})
		}
	}
	WriteMetrics(w, out)
}

// WriteMetrics emits families in the text exposition format (version
// 0.0.4): HELP and TYPE comments (each only when set), then the
// family's samples.
func WriteMetrics(w io.Writer, fams []*Family) {
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help)
		}
		if f.Type != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			WriteSample(w, s)
		}
	}
}

// formatFloat renders a gauge value the way %g does.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Counter is a monotonic counter. It is unsigned, so it never renders
// negative.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Counter registers and returns a counter the caller increments.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Value)
	return c
}

// CounterFunc registers a counter whose value another component owns;
// f is read at scrape time.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.add(name, help, "counter", func() []Sample {
		return []Sample{{Name: name, Value: strconv.FormatUint(f(), 10)}}
	})
}

// GaugeFunc registers a gauge sampled from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.add(name, help, "gauge", func() []Sample {
		return []Sample{{Name: name, Value: formatFloat(f())}}
	})
}

// GaugeVecFunc registers a labeled gauge family sampled at scrape
// time: f reports each series through set, label values in the order
// of labels.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, f func(set func(v float64, values ...string))) {
	r.add(name, help, "gauge", func() []Sample {
		var out []Sample
		f(func(v float64, values ...string) {
			out = append(out, Sample{Name: name, Labels: labelPairs(labels, values), Value: formatFloat(v)})
		})
		return out
	})
}

func labelPairs(names, values []string) []Label {
	if len(values) != len(names) {
		panic(fmt.Sprintf("obs: %d label values for labels %v", len(values), names))
	}
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label{Name: n, Value: values[i]}
	}
	return out
}

// CounterVec is a counter family with one series per label-value
// tuple, rendered in sorted label-value order.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]*vecSeries
}

type vecSeries struct {
	values []string
	n      uint64
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: map[string]*vecSeries{}}
	r.add(name, help, "counter", func() []Sample { return v.samples(name) })
	return v
}

// seriesLocked returns the series for values, creating it at zero.
// The NUL separator sorts below every other byte, so the joined key
// orders like the tuple.
func (v *CounterVec) seriesLocked(values []string) *vecSeries {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	s := v.series[key]
	if s == nil {
		s = &vecSeries{values: append([]string(nil), values...)}
		v.series[key] = s
	}
	return s
}

// Inc adds one to the series for values.
func (v *CounterVec) Inc(values ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seriesLocked(values).n++
}

// Seed creates the series for values at zero, so it renders from the
// first scrape — before anything has been counted on it.
func (v *CounterVec) Seed(values ...string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seriesLocked(values)
}

// Value returns the count of the series for values (0 when absent).
func (v *CounterVec) Value(values ...string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.series[strings.Join(values, "\x00")]; s != nil {
		return s.n
	}
	return 0
}

func (v *CounterVec) samples(name string) []Sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, len(keys))
	for i, k := range keys {
		s := v.series[k]
		out[i] = Sample{Name: name, Labels: labelPairs(v.labels, s.values), Value: strconv.FormatUint(s.n, 10)}
	}
	return out
}

// HistogramVec is a duration histogram family with one series per
// value of a single label (the job kind). Buckets are upper bounds in
// seconds; the sum is kept in nanoseconds and rendered in seconds.
type HistogramVec struct {
	label   string
	buckets []float64
	mu      sync.Mutex
	series  map[string]*histogram
}

type histogram struct {
	counts   []atomic.Uint64 // per bucket, last is +Inf; cumulated at render
	total    atomic.Uint64
	sumNanos atomic.Int64
}

// HistogramVec registers and returns a duration histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	h := &HistogramVec{label: label, buckets: buckets, series: map[string]*histogram{}}
	r.add(name, help, "histogram", func() []Sample { return h.samples(name) })
	return h
}

// Observe records one duration on the series for value.
func (h *HistogramVec) Observe(value string, d time.Duration) {
	h.mu.Lock()
	s := h.series[value]
	if s == nil {
		s = &histogram{counts: make([]atomic.Uint64, len(h.buckets)+1)}
		h.series[value] = s
	}
	h.mu.Unlock()
	slot := sort.SearchFloat64s(h.buckets, d.Seconds())
	s.counts[slot].Add(1)
	s.total.Add(1)
	s.sumNanos.Add(int64(d))
}

func (h *HistogramVec) samples(name string) []Sample {
	h.mu.Lock()
	values := make([]string, 0, len(h.series))
	for v := range h.series {
		values = append(values, v)
	}
	sort.Strings(values)
	series := make([]*histogram, len(values))
	for i, v := range values {
		series[i] = h.series[v]
	}
	h.mu.Unlock()

	var out []Sample
	for i, v := range values {
		s := series[i]
		lbl := Label{Name: h.label, Value: v}
		var cum uint64
		for bi := range s.counts {
			cum += s.counts[bi].Load()
			le := "+Inf"
			if bi < len(h.buckets) {
				le = formatFloat(h.buckets[bi])
			}
			out = append(out, Sample{Name: name + "_bucket",
				Labels: []Label{lbl, {Name: "le", Value: le}}, Value: strconv.FormatUint(cum, 10)})
		}
		out = append(out,
			Sample{Name: name + "_sum", Labels: []Label{lbl},
				Value: formatFloat(time.Duration(s.sumNanos.Load()).Seconds())},
			Sample{Name: name + "_count", Labels: []Label{lbl},
				Value: strconv.FormatUint(s.total.Load(), 10)})
	}
	return out
}
