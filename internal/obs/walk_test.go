package obs

import (
	"strings"
	"testing"
)

type walkHist struct{ n uint64 }

func (h walkHist) Hist() HistSnapshot {
	return HistSnapshot{Bounds: []float64{1}, Counts: []uint64{h.n, 0}, Sum: float64(h.n), Count: h.n}
}

type walkInner struct {
	Hits uint64 `json:"hits" metric:"spmt_hits_total,tier=disk" help:"Hits by tier."`
}

type WalkEmbedded struct {
	Depth int `json:"depth" metric:"spmt_depth" help:"Depth."`
}

type walkStats struct {
	WalkEmbedded
	Hits    uint64              `json:"hits" metric:"spmt_hits_total,tier=mem" help:"Hits by tier."`
	Skipped uint64              `json:"skipped" metric:"-"`
	BusyMS  float64             `json:"busy_ms" metric:"spmt_busy_seconds_total,ms" help:"Busy time."`
	ByKind  map[string]uint64   `json:"by_kind" metric:"spmt_kind_total,kind" help:"By kind."`
	Members []string            `json:"members" metric:"spmt_members" help:"Members."`
	Lat     map[string]walkHist `json:"lat" metric:"spmt_lat_seconds,kind" help:"Latency."`
	Disk    *walkInner          `json:"disk"`
	Absent  *walkInner          `json:"absent"`
}

func TestWalkRendersTaggedFields(t *testing.T) {
	w := NewMetricsWriter()
	w.Walk(walkStats{
		WalkEmbedded: WalkEmbedded{Depth: 3},
		Hits:         5,
		Skipped:      9,
		BusyMS:       1500,
		ByKind:       map[string]uint64{"sim": 2, "emu": 1},
		Members:      []string{"a", "b"},
		Lat:          map[string]walkHist{"sim": {n: 4}},
		Disk:         &walkInner{Hits: 7},
	})
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP spmt_depth Depth.
# TYPE spmt_depth gauge
spmt_depth 3
# HELP spmt_hits_total Hits by tier.
# TYPE spmt_hits_total counter
spmt_hits_total{tier="mem"} 5
spmt_hits_total{tier="disk"} 7
# HELP spmt_busy_seconds_total Busy time.
# TYPE spmt_busy_seconds_total counter
spmt_busy_seconds_total 1.5
# HELP spmt_kind_total By kind.
# TYPE spmt_kind_total counter
spmt_kind_total{kind="emu"} 1
spmt_kind_total{kind="sim"} 2
# HELP spmt_members Members.
# TYPE spmt_members gauge
spmt_members 2
# HELP spmt_lat_seconds Latency.
# TYPE spmt_lat_seconds histogram
spmt_lat_seconds_bucket{kind="sim",le="1"} 4
spmt_lat_seconds_bucket{kind="sim",le="+Inf"} 4
spmt_lat_seconds_sum{kind="sim"} 4
spmt_lat_seconds_count{kind="sim"} 4
`
	if string(out) != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", out, want)
	}
}

func TestWalkRejectsBadTags(t *testing.T) {
	for name, v := range map[string]any{
		"two labels": struct {
			X uint64 `metric:"spmt_x_total,a=1,b=2"`
		}{},
		"bad label": struct {
			X uint64 `metric:"spmt_x_total,Bad=1"`
		}{},
		"key label on scalar": struct {
			X uint64 `metric:"spmt_x_total,kind"`
		}{},
		"map without key label": struct {
			X map[string]uint64 `metric:"spmt_x_total"`
		}{X: map[string]uint64{"a": 1}},
		"non-numeric": struct {
			X string `metric:"spmt_x"`
		}{},
		"bad name": struct {
			X uint64 `metric:"x_total"`
		}{},
		"not a struct": 3,
	} {
		w := NewMetricsWriter()
		w.Walk(v)
		if _, err := w.Bytes(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "obs: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
}
