package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Regenerate the goldens with
//
//	go test ./internal/server -run 'TestMetricFamilies|TestStatsSchema' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metric_families.txt and testdata/stats_schema.txt")

const (
	goldenFamilies = "testdata/metric_families.txt"
	goldenSchema   = "testdata/stats_schema.txt"
)

// familiesAdded lists the families exposed on purpose since the golden
// was generated; familiesAdded ∪ golden is the exact expected set.
var familiesAdded = []string{
	"cluster spmt_shard_replication_push_skipped_total counter -",
}

// schemaAdded lists the /v1/stats fields added on purpose since the
// schema golden was generated.
var schemaAdded = []string{
	"http_panics number",
	"traces object",
	"traces.resident number",
	"traces.spans_dropped number",
	"traces.started number",
}

// exposedFamilies scrapes url and returns one "<config> <family>
// <type> <label keys>" line per family (histogram "le" excluded;
// label keys sorted, comma-joined, "-" when none).
func exposedFamilies(t *testing.T, config, url string) []string {
	t.Helper()
	doc := scrapeMetrics(t, url)
	parseExposition(t, doc) // strict shape checks
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			labels[f[2]] = map[string]bool{}
		}
	}
	for _, line := range strings.Split(doc, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		name, set, _ := strings.Cut(key, "{")
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
				fam = base
			}
		}
		for _, lab := range strings.Split(strings.TrimSuffix(set, "}"), ",") {
			if k, _, ok := strings.Cut(lab, "="); ok && k != "le" {
				labels[fam][k] = true
			}
		}
	}
	var out []string
	for fam, typ := range types {
		var ks []string
		for k := range labels[fam] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		ls := strings.Join(ks, ",")
		if ls == "" {
			ls = "-"
		}
		out = append(out, fmt.Sprintf("%s %s %s %s", config, fam, typ, ls))
	}
	return out
}

// scrapeMetrics returns the /metrics document served at url.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, doc)
	}
	return string(doc)
}

// startFamilyCluster boots a disk-backed 2-node cluster whose servers
// run with speculation, an admission gate and a (never-firing) fault
// injector, so every optional /metrics family is present.
func startFamilyCluster(t *testing.T) []*clusterNode {
	t.Helper()
	urls := make([]string, 2)
	switches := make([]*switchHandler, 2)
	nodes := make([]*clusterNode, 2)
	for i := range nodes {
		switches[i] = &switchHandler{}
		ts := httptest.NewServer(switches[i])
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{ts: ts, url: ts.URL}
		urls[i] = ts.URL
	}
	for i := range nodes {
		inj := fault.New(1)
		inj.Enable(fault.DiskRead, 0, 0)
		inj.Enable(fault.PeerError, 0, 0)
		cl, err := shard.New(urls[i], urls, shard.Options{WrapTransport: inj.Transport})
		if err != nil {
			t.Fatal(err)
		}
		disk, err := engine.OpenDiskTier(t.TempDir(), 0, codec.New())
		if err != nil {
			t.Fatal(err)
		}
		disk.SetFaults(inj)
		eng := engine.New(engine.Options{
			Workers: 2,
			Disk:    disk,
			Remote:  shard.NewFetcher(cl, codec.New()),
		})
		t.Cleanup(eng.Close)
		nodes[i].srv = NewWithConfig(eng, cl, Config{Speculate: true, AdmitCapacity: 8, Fault: inj})
		t.Cleanup(nodes[i].srv.Close)
		switches[i].set(nodes[i].srv.Handler())
	}
	return nodes
}

// TestMetricFamilies pins the set of exposed (family, type, label
// keys) for a fully-featured cluster node and a gate-less standalone
// server: a family may appear or vanish only by an edit to the golden
// or to familiesAdded. The admission families in particular stay
// exposed, at zero, when the gate is off.
func TestMetricFamilies(t *testing.T) {
	nodes := startFamilyCluster(t)
	for _, n := range nodes {
		for _, body := range []string{
			`{"bench":"compress","size":"test","tus":4}`,
			`{"bench":"ijpeg","size":"test","tus":4}`,
		} {
			if resp, b := postJSON(t, n.url+"/v1/simulate", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate status %d: %s", resp.StatusCode, b)
			}
		}
	}
	_, ts := newTestServer(t)
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", `{"bench":"compress","size":"test"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, b)
	}

	// The cluster's set is the union over both nodes: which node runs
	// which job depends on where the listeners' URLs hash.
	got := exposedFamilies(t, "standalone", ts.URL)
	for _, n := range nodes {
		got = append(got, exposedFamilies(t, "cluster", n.url)...)
	}
	checkGolden(t, goldenFamilies, got, familiesAdded)
}

// TestStatsFieldsDeclareMetrics is the drift guard between the two
// views: every numeric, map or slice leaf of the /v1/stats body names
// its /metrics family in a metric tag (or opts out with "-"), and no
// two fields declare one family with different types or label keys.
func TestStatsFieldsDeclareMetrics(t *testing.T) {
	type decl struct{ field, typ, label string }
	fams := map[string]decl{}
	histType := reflect.TypeFor[obs.Histogrammer]()
	deref := func(typ reflect.Type) reflect.Type {
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		return typ
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			ft, field := deref(f.Type), path+"."+f.Name
			tag, tagged := f.Tag.Lookup("metric")
			switch {
			case tag == "-":
				continue
			case !tagged && ft.Kind() == reflect.Struct && !ft.Implements(histType):
				walk(ft, field)
				continue
			case !tagged:
				if k := ft.Kind(); k == reflect.Map || k == reflect.Slice || k >= reflect.Int && k <= reflect.Float64 {
					t.Errorf("%s has no metric tag (a family name, or \"-\")", field)
				}
				continue
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s declares %s without a help tag", field, tag)
			}
			name, rest, _ := strings.Cut(tag, ",")
			elem := ft
			if ft.Kind() == reflect.Map {
				elem = ft.Elem()
			}
			d := decl{field: field, typ: "gauge"}
			switch {
			case elem.Implements(histType):
				d.typ = "histogram"
			case strings.HasSuffix(name, "_total"):
				d.typ = "counter"
			}
			for _, part := range strings.Split(rest, ",") {
				if part != "" && part != "ms" {
					d.label, _, _ = strings.Cut(part, "=")
				}
			}
			if prev, ok := fams[name]; ok && (prev.typ != d.typ || prev.label != d.label) {
				t.Errorf("%s is a %s labelled %q at %s but a %s labelled %q at %s",
					name, prev.typ, prev.label, prev.field, d.typ, d.label, d.field)
			}
			fams[name] = d
		}
	}
	walk(reflect.TypeFor[statsResponse](), "statsResponse")
	if len(fams) < 50 {
		t.Fatalf("the guard saw only %d families: is the walk reaching the Stats structs?", len(fams))
	}
}

// TestStatsSchema pins the JSON shape of /v1/stats (local and cluster
// views alike): every field's dotted path and JSON type, map values
// under "*". Fields may be added only through schemaAdded; none may be
// renamed, moved or retyped.
func TestStatsSchema(t *testing.T) {
	var got []string
	walkSchema(reflect.TypeOf(statsResponse{}), "", &got)
	checkGolden(t, goldenSchema, got, schemaAdded)
}

// walkSchema appends "<path> <json type>" for every field reachable
// from typ, following encoding/json's naming and embedding rules.
func walkSchema(typ reflect.Type, path string, out *[]string) {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	join := func(name string) string {
		if path == "" {
			return name
		}
		return path + "." + name
	}
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" || !f.IsExported() {
				continue
			}
			if f.Anonymous && name == "" {
				walkSchema(f.Type, path, out)
				continue
			}
			if name == "" {
				name = f.Name
			}
			walkSchema(f.Type, join(name), out)
		}
		if path != "" {
			*out = append(*out, path+" object")
		}
	case reflect.Map:
		*out = append(*out, path+" object")
		walkSchema(typ.Elem(), join("*"), out)
	case reflect.Slice:
		*out = append(*out, path+" array")
		walkSchema(typ.Elem(), join("[]"), out)
	case reflect.String:
		*out = append(*out, path+" string")
	case reflect.Bool:
		*out = append(*out, path+" bool")
	default:
		*out = append(*out, path+" number")
	}
}

// checkGolden compares got against the golden file plus added, or
// rewrites the golden from got under -update-golden.
func checkGolden(t *testing.T, file string, got, added []string) {
	t.Helper()
	sort.Strings(got)
	got = slices.Compact(got)
	if *updateGolden {
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
	}
	for _, line := range added {
		want[line] = true
	}
	have := map[string]bool{}
	for _, line := range got {
		have[line] = true
		if !want[line] {
			t.Errorf("unexpected: %s", line)
		}
	}
	for line := range want {
		if !have[line] {
			t.Errorf("missing: %s", line)
		}
	}
}
