package obs

import (
	"math"
	"strings"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	valid := []string{"spmt_http_requests_total", "spmt_x", "spmt_a1_b2"}
	for _, s := range valid {
		if !ValidMetricName(s) {
			t.Errorf("ValidMetricName(%q) = false, want true", s)
		}
	}
	invalid := []string{"", "spmt_", "http_requests_total", "spmt_Upper", "spmt_1leading", "spmt_has-dash", "SPMT_x"}
	for _, s := range invalid {
		if ValidMetricName(s) {
			t.Errorf("ValidMetricName(%q) = true, want false", s)
		}
	}
}

func TestWriterCounterGauge(t *testing.T) {
	w := NewMetricsWriter()
	w.Counter("spmt_jobs_total", "Jobs run.", 42, A("kind", "sim"))
	w.Counter("spmt_jobs_total", "Jobs run.", 7, A("kind", "reach"))
	w.Gauge("spmt_workers", "Worker slots.", 8)
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP spmt_jobs_total Jobs run.
# TYPE spmt_jobs_total counter
spmt_jobs_total{kind="sim"} 42
spmt_jobs_total{kind="reach"} 7
# HELP spmt_workers Worker slots.
# TYPE spmt_workers gauge
spmt_workers 8
`
	if string(out) != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", out, want)
	}
}

func TestWriterHistogramCumulates(t *testing.T) {
	w := NewMetricsWriter()
	h := HistSnapshot{
		Bounds: []float64{0.1, 0.5},
		Counts: []uint64{3, 2, 1}, // non-cumulative, trailing +Inf
		Sum:    1.25,
		Count:  6,
	}
	w.Histogram("spmt_dur_seconds", "Duration.", h, A("endpoint", "/v1/simulate"))
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`spmt_dur_seconds_bucket{endpoint="/v1/simulate",le="0.1"} 3`,
		`spmt_dur_seconds_bucket{endpoint="/v1/simulate",le="0.5"} 5`,
		`spmt_dur_seconds_bucket{endpoint="/v1/simulate",le="+Inf"} 6`,
		`spmt_dur_seconds_sum{endpoint="/v1/simulate"} 1.25`,
		`spmt_dur_seconds_count{endpoint="/v1/simulate"} 6`,
	} {
		if !strings.Contains(string(out), line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	if n := strings.Count(string(out), "# TYPE spmt_dur_seconds histogram"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
}

func TestWriterRejectsBadNames(t *testing.T) {
	w := NewMetricsWriter()
	w.Counter("bad_name_total", "x", 1)
	if _, err := w.Bytes(); err == nil {
		t.Fatal("unprefixed metric name accepted")
	}

	w = NewMetricsWriter()
	w.Counter("spmt_ok_total", "x", 1, A("BadLabel", "v"))
	if _, err := w.Bytes(); err == nil {
		t.Fatal("invalid label name accepted")
	}

	w = NewMetricsWriter()
	w.Counter("spmt_x", "x", 1)
	w.Gauge("spmt_x", "x", 1)
	if _, err := w.Bytes(); err == nil {
		t.Fatal("type conflict accepted")
	}
}

// TestWriterGroupsFamilies: interleaved series of one family come out
// consecutively under one header, families in first-series order.
func TestWriterGroupsFamilies(t *testing.T) {
	w := NewMetricsWriter()
	w.Counter("spmt_a_total", "A.", 1, A("k", "x"))
	w.Gauge("spmt_b", "B.", 2)
	w.Counter("spmt_a_total", "A.", 3, A("k", "y"))
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP spmt_a_total A.
# TYPE spmt_a_total counter
spmt_a_total{k="x"} 1
spmt_a_total{k="y"} 3
# HELP spmt_b B.
# TYPE spmt_b gauge
spmt_b 2
`
	if string(out) != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", out, want)
	}
}

func TestWriterEscapesLabelValues(t *testing.T) {
	w := NewMetricsWriter()
	w.Counter("spmt_x_total", "x", 1, A("k", "a\"b\\c\nd"))
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `k="a\"b\\c\nd"`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:   "0",
		1.5: "1.5",
		1e9: "1e+09",
		-2:  "-2",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		t.Errorf("+Inf = %q", got)
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec("endpoint", "code")
	v.Add(1, "/v1/simulate", "200")
	v.Add(2, "/v1/simulate", "200")
	v.Add(1, "/v1/analyze", "400")
	w := NewMetricsWriter()
	v.Write(w, "spmt_http_requests_total", "HTTP requests.")
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by label values: /v1/analyze before /v1/simulate.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[2] != `spmt_http_requests_total{endpoint="/v1/analyze",code="400"} 1` ||
		lines[3] != `spmt_http_requests_total{endpoint="/v1/simulate",code="200"} 3` {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec([]float64{0.1, 1}, "endpoint")
	v.Observe(0.05, "/a")
	v.Observe(0.1, "/a") // on the bound -> le="0.1" bucket
	v.Observe(0.5, "/a")
	v.Observe(5, "/a")
	w := NewMetricsWriter()
	v.Write(w, "spmt_d_seconds", "d")
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`spmt_d_seconds_bucket{endpoint="/a",le="0.1"} 2`,
		`spmt_d_seconds_bucket{endpoint="/a",le="1"} 3`,
		`spmt_d_seconds_bucket{endpoint="/a",le="+Inf"} 4`,
		`spmt_d_seconds_count{endpoint="/a"} 4`,
	} {
		if !strings.Contains(string(out), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

func TestCounterVecPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on label arity mismatch")
		}
	}()
	NewCounterVec("a", "b").Add(1, "only-one")
}
