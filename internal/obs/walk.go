// Struct-tag exposition: each package's Stats snapshot declares its
// /metrics families next to the json tags /v1/stats already serves,
//
//	Hits uint64 `json:"hits" metric:"spmt_store_hits_total,tier=mem" help:"Artifact store hits by tier."`
//
// so one field is one declaration behind both formats. The metric tag
// is the family name, then at most one label — a bare label name for a
// map field (one series per key) or a constant label=value — and the
// mark "ms" for a millisecond value exposed in seconds. metric:"-"
// keeps a field out; an untagged struct field, embedded or not, is
// walked into.
package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Histogrammer is a stats value exposed as one histogram.
type Histogrammer interface {
	Hist() HistSnapshot
}

// Walk writes every tagged field reachable from v, a struct or a
// pointer to one. The family type follows from the name — a _total
// suffix makes a counter, anything else a gauge — unless the value is
// a Histogrammer. A map[string]V writes one series per key, a slice a
// gauge of its length, and a nil pointer nothing.
func (w *MetricsWriter) Walk(v any) { w.walk(reflect.ValueOf(v)) }

func (w *MetricsWriter) walk(v reflect.Value) {
	v = indirect(v)
	if !v.IsValid() {
		return
	}
	if v.Kind() != reflect.Struct {
		w.fail("obs: Walk over a %s, want a struct", v.Type())
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, tagged := f.Tag.Lookup("metric")
		switch {
		case !f.IsExported() || tag == "-":
		case tagged:
			w.field(v.Field(i), tag, f.Tag.Get("help"))
		default:
			if fv := indirect(v.Field(i)); fv.Kind() == reflect.Struct {
				w.walk(fv)
			}
		}
	}
}

// metricTag is one parsed metric struct tag.
type metricTag struct {
	name  string
	label string // map-key label, or constant label with value
	value string
	ms    bool
}

func parseMetricTag(tag string) (metricTag, error) {
	parts := strings.Split(tag, ",")
	mt := metricTag{name: parts[0]}
	for _, p := range parts[1:] {
		switch {
		case p == "ms" && !mt.ms:
			mt.ms = true
		case p != "ms" && mt.label == "":
			mt.label, mt.value, _ = strings.Cut(p, "=")
			if !validLabelName(mt.label) {
				return mt, fmt.Errorf("invalid label name %q", mt.label)
			}
		default:
			return mt, fmt.Errorf("unexpected part %q", p)
		}
	}
	return mt, nil
}

// field writes one tagged field.
func (w *MetricsWriter) field(v reflect.Value, tag, help string) {
	mt, err := parseMetricTag(tag)
	if err != nil {
		w.fail("obs: metric tag %q: %v", tag, err)
		return
	}
	v = indirect(v)
	if !v.IsValid() {
		return
	}
	if v.Kind() == reflect.Map {
		if mt.label == "" || mt.value != "" {
			w.fail("obs: metric %q: a map field needs a bare key label", mt.name)
			return
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			w.value(mt, help, v.MapIndex(k), A(mt.label, k.String()))
		}
		return
	}
	if mt.label != "" && mt.value == "" {
		w.fail("obs: metric %q: key label %q on a non-map field", mt.name, mt.label)
		return
	}
	var attrs []Attr
	if mt.label != "" {
		attrs = []Attr{A(mt.label, mt.value)}
	}
	w.value(mt, help, v, attrs...)
}

// value writes one series (or histogram) from a leaf value.
func (w *MetricsWriter) value(mt metricTag, help string, v reflect.Value, attrs ...Attr) {
	if h, ok := v.Interface().(Histogrammer); ok {
		w.Histogram(mt.name, help, h.Hist(), attrs...)
		return
	}
	var x float64
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		x = v.Float()
	case reflect.Slice:
		x = float64(v.Len())
	default:
		w.fail("obs: metric %q: cannot expose a %s", mt.name, v.Type())
		return
	}
	if mt.ms {
		x /= 1000
	}
	if strings.HasSuffix(mt.name, "_total") {
		w.Counter(mt.name, help, x, attrs...)
	} else {
		w.Gauge(mt.name, help, x, attrs...)
	}
}

// indirect follows pointers; a nil pointer yields the invalid Value.
func indirect(v reflect.Value) reflect.Value {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return reflect.Value{}
		}
		v = v.Elem()
	}
	return v
}
