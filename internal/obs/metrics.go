// Hand-rolled Prometheus text exposition (version 0.0.4): a
// MetricsWriter that renders counters, gauges, and histograms with
// HELP/TYPE headers, label escaping, and strict name validation — any
// series not matching spmt_ snake_case is a hard error, so a typo'd
// metric fails the scrape test instead of shipping — plus two small
// live instruments (CounterVec, HistogramVec) for values that have no
// existing atomic counter to snapshot (per-endpoint HTTP latency and
// status codes). Walk (walk.go) renders tagged Stats structs.
package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricNamePrefix is the mandatory prefix of every exposed series.
const MetricNamePrefix = "spmt_"

// ValidMetricName reports whether name is spmt_-prefixed snake_case.
func ValidMetricName(name string) bool {
	if !strings.HasPrefix(name, MetricNamePrefix) {
		return false
	}
	rest := name[len(MetricNamePrefix):]
	if rest == "" || rest[0] < 'a' || rest[0] > 'z' {
		return false
	}
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// MetricsWriter accumulates one exposition document. Series may be
// written in any order: the writer groups them by family, in order of
// each family's first series, under one HELP/TYPE header (the help of
// the first series wins). Reusing a name with a different type, or any
// invalid name, poisons the writer and Bytes reports the error.
type MetricsWriter struct {
	err   error
	order []*family
	fams  map[string]*family
}

// family is one metric family's header and accumulated series lines.
type family struct {
	name, help, typ string
	body            bytes.Buffer
}

// NewMetricsWriter returns an empty exposition document.
func NewMetricsWriter() *MetricsWriter {
	return &MetricsWriter{fams: make(map[string]*family)}
}

func (w *MetricsWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// family validates the name and returns its family, registering it on
// first use; nil once the writer is poisoned.
func (w *MetricsWriter) family(name, help, typ string) *family {
	if w.err != nil {
		return nil
	}
	if !ValidMetricName(name) {
		w.fail("obs: metric name %q is not %ssnake_case", name, MetricNamePrefix)
		return nil
	}
	if f, ok := w.fams[name]; ok {
		if f.typ != typ {
			w.fail("obs: metric %q declared as both %s and %s", name, f.typ, typ)
			return nil
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	w.fams[name] = f
	w.order = append(w.order, f)
	return f
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	labelEscaper = strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer("\\", `\\`, "\n", `\n`)
)

// series writes one sample line of family f; name is the family name
// or, for a histogram, one of its _bucket/_sum/_count sample names.
func (w *MetricsWriter) series(f *family, name string, attrs []Attr, v float64) {
	if w.err != nil {
		return
	}
	b := &f.body
	b.WriteString(name)
	if len(attrs) > 0 {
		b.WriteByte('{')
		for i, a := range attrs {
			if !validLabelName(a.Key) {
				w.fail("obs: metric %q has invalid label name %q", name, a.Key)
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `%s="%s"`, a.Key, labelEscaper.Replace(a.Value))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// Counter writes one counter series.
func (w *MetricsWriter) Counter(name, help string, v float64, attrs ...Attr) {
	if f := w.family(name, help, "counter"); f != nil {
		w.series(f, name, attrs, v)
	}
}

// Gauge writes one gauge series.
func (w *MetricsWriter) Gauge(name, help string, v float64, attrs ...Attr) {
	if f := w.family(name, help, "gauge"); f != nil {
		w.series(f, name, attrs, v)
	}
}

// HistSnapshot is one histogram's state for exposition. Counts holds
// per-bucket (non-cumulative) counts with one trailing +Inf bucket, so
// len(Counts) == len(Bounds)+1; the writer emits the cumulative form
// the exposition format requires.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Histogram writes one histogram series set (buckets, sum, count).
func (w *MetricsWriter) Histogram(name, help string, h HistSnapshot, attrs ...Attr) {
	f := w.family(name, help, "histogram")
	if f == nil {
		return
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		w.fail("obs: histogram %q has %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		return
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		w.series(f, name+"_bucket", append(append([]Attr(nil), attrs...),
			Attr{Key: "le", Value: formatValue(bound)}), float64(cum))
	}
	cum += h.Counts[len(h.Bounds)]
	w.series(f, name+"_bucket", append(append([]Attr(nil), attrs...),
		Attr{Key: "le", Value: "+Inf"}), float64(cum))
	w.series(f, name+"_sum", attrs, h.Sum)
	w.series(f, name+"_count", attrs, float64(h.Count))
}

// Bytes returns the document, or the first error the writer hit.
func (w *MetricsWriter) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	var buf bytes.Buffer
	for _, f := range w.order {
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		buf.Write(f.body.Bytes())
	}
	return buf.Bytes(), nil
}

// labelKey joins label values into one deterministic map key.
const labelSep = "\x1f"

// CounterVec is a live set of counter series over a fixed label
// schema, for events with no pre-existing atomic counter to snapshot.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	vals   map[string]float64
}

// NewCounterVec builds a counter vector with the given label names.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{labels: labels, vals: make(map[string]float64)}
}

// Add increments the series at the given label values.
func (v *CounterVec) Add(n float64, labelValues ...string) {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec.Add got %d label values, want %d", len(labelValues), len(v.labels)))
	}
	key := strings.Join(labelValues, labelSep)
	v.mu.Lock()
	v.vals[key] += n
	v.mu.Unlock()
}

// Write emits every series, label-sorted for deterministic output.
func (v *CounterVec) Write(w *MetricsWriter, name, help string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	snap := make(map[string]float64, len(v.vals))
	for k, val := range v.vals {
		snap[k] = val
	}
	v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		w.Counter(name, help, snap[k], v.attrs(k)...)
	}
}

func (v *CounterVec) attrs(key string) []Attr {
	parts := strings.Split(key, labelSep)
	attrs := make([]Attr, len(v.labels))
	for i, name := range v.labels {
		attrs[i] = Attr{Key: name, Value: parts[i]}
	}
	return attrs
}

// HistogramVec is a live set of histogram series over a fixed label
// schema and shared bucket bounds.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.Mutex
	cells  map[string]*histCell
}

type histCell struct {
	counts []uint64
	sum    float64
	count  uint64
}

// NewHistogramVec builds a histogram vector. bounds are the ascending
// bucket upper bounds (an implicit +Inf bucket is appended).
func NewHistogramVec(bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{
		labels: labels,
		bounds: append([]float64(nil), bounds...),
		cells:  make(map[string]*histCell),
	}
}

// Observe records one value into the series at the given label values.
func (v *HistogramVec) Observe(x float64, labelValues ...string) {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec.Observe got %d label values, want %d", len(labelValues), len(v.labels)))
	}
	key := strings.Join(labelValues, labelSep)
	v.mu.Lock()
	cell := v.cells[key]
	if cell == nil {
		cell = &histCell{counts: make([]uint64, len(v.bounds)+1)}
		v.cells[key] = cell
	}
	i := sort.SearchFloat64s(v.bounds, x)
	cell.counts[i]++
	cell.sum += x
	cell.count++
	v.mu.Unlock()
}

// Write emits every series, label-sorted for deterministic output.
func (v *HistogramVec) Write(w *MetricsWriter, name, help string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.cells))
	snaps := make(map[string]HistSnapshot, len(v.cells))
	for k, cell := range v.cells {
		keys = append(keys, k)
		snaps[k] = HistSnapshot{
			Bounds: v.bounds,
			Counts: append([]uint64(nil), cell.counts...),
			Sum:    cell.sum,
			Count:  cell.count,
		}
	}
	v.mu.Unlock()
	sort.Strings(keys)
	cv := CounterVec{labels: v.labels} // reuse label rendering
	for _, k := range keys {
		w.Histogram(name, help, snaps[k], cv.attrs(k)...)
	}
}
