package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/workload"
)

// walkTree visits every span of a rendered trace tree in display
// order.
func walkTree(roots []*obs.SpanJSON, f func(*obs.SpanJSON)) {
	for _, sp := range roots {
		f(sp)
		walkTree(sp.Children, f)
	}
}

// findSpan returns the first span (in display order) matching pred.
func findSpan(roots []*obs.SpanJSON, pred func(*obs.SpanJSON) bool) *obs.SpanJSON {
	var found *obs.SpanJSON
	walkTree(roots, func(sp *obs.SpanJSON) {
		if found == nil && pred(sp) {
			found = sp
		}
	})
	return found
}

func spanNamed(name string) func(*obs.SpanJSON) bool {
	return func(sp *obs.SpanJSON) bool { return sp.Name == name }
}

// fetchTrace polls GET /v1/traces/{id} until done reports the stitched
// tree converged: the handler's root span ends (and records) only
// after the response body the client saw was written, so the first
// read can legitimately catch the trace mid-assembly.
func fetchTrace(t *testing.T, base, id string, done func(*obs.TraceJSON) bool) *obs.TraceJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last *obs.TraceJSON
	for time.Now().Before(deadline) {
		var tj obs.TraceJSON
		if resp := getJSON(t, base+"/v1/traces/"+id, &tj); resp.StatusCode == http.StatusOK {
			if done(&tj) {
				return &tj
			}
			last = &tj
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("trace %s never converged; last view: %+v", id, last)
	return nil
}

// TestTraceProxiedSimulate drives a /v1/simulate owned by the OTHER
// node through an entry node and asserts the single stitched trace:
// the entry's route span names the owner, and grafted under it is the
// owner's own span subtree containing the engine execution.
func TestTraceProxiedSimulate(t *testing.T) {
	nodes := startTestCluster(t, 2)
	cl := nodes[0].srv.Cluster()

	var bench, simKey string
	for _, name := range workload.Benchmarks {
		key := expt.SimKey(workload.SizeTest, expt.SimSpec{Bench: name, Policy: "profile", TUs: 4})
		if cl.Owner(key) == nodes[1].url {
			bench, simKey = name, key
			break
		}
	}
	if bench == "" {
		t.Skip("every benchmark's sim key hashes to the entry node")
	}

	resp, body := postJSON(t, nodes[0].url+"/v1/simulate",
		fmt.Sprintf(`{"bench":%q,"size":"test","policy":"profile","tus":4}`, bench))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(obs.TraceHeader)
	if id == "" {
		t.Fatalf("response must carry %s", obs.TraceHeader)
	}

	tj := fetchTrace(t, nodes[0].url, id, func(tj *obs.TraceJSON) bool {
		route := findSpan(tj.Roots, spanNamed("route"))
		return route != nil && route.Attrs["decision"] == "proxied" &&
			findSpan(route.Children, func(sp *obs.SpanJSON) bool { return sp.Node == nodes[1].url }) != nil &&
			findSpan(route.Children, spanNamed("exec sim")) != nil
	})

	if tj.ID != id || tj.Node != nodes[0].url {
		t.Errorf("trace id/node = %s/%s, want %s/%s", tj.ID, tj.Node, id, nodes[0].url)
	}
	root := findSpan(tj.Roots, spanNamed("http POST /v1/simulate"))
	if root == nil || root.Node != nodes[0].url {
		t.Fatalf("entry root span missing or mislabeled: %+v", tj.Roots)
	}
	route := findSpan(root.Children, spanNamed("route"))
	if route == nil {
		t.Fatal("no route span under the entry http span")
	}
	if route.Attrs["owner"] != nodes[1].url || route.Attrs["peer"] != nodes[1].url ||
		route.Attrs["key"] != simKey {
		t.Errorf("route attrs = %v, want owner/peer %s and key %s", route.Attrs, nodes[1].url, simKey)
	}
	// The grafted subtree: the owner's http root, carrying the owning
	// node's name, with the engine execution inside it. (The stitcher
	// may graft further roots — e.g. artifact GETs served under the
	// same trace — so the graft is found by name, not position.)
	graft := findSpan(route.Children, func(sp *obs.SpanJSON) bool {
		return sp.Node == nodes[1].url && sp.Name == "http POST /v1/simulate"
	})
	if graft == nil {
		t.Fatal("owner's http span subtree was not stitched under the route span")
	}
	exec := findSpan([]*obs.SpanJSON{graft}, func(sp *obs.SpanJSON) bool {
		return sp.Name == "exec sim" && sp.Attrs["key"] == simKey
	})
	if exec == nil {
		t.Fatal("owner's subtree has no exec span for the sim key")
	}
	if exec.Attrs["tier"] == "" {
		t.Errorf("exec span records no resolution tier: %v", exec.Attrs)
	}
}

// TestTraceFannedBatch drives a /v1/batch whose specs span both nodes
// and asserts one stitched trace: a fanout span naming the peer shard,
// with the peer's sub-batch subtree grafted under it, plus the locally
// owned spec's execution in the entry's own tree.
func TestTraceFannedBatch(t *testing.T) {
	nodes := startTestCluster(t, 2)
	cl := nodes[0].srv.Cluster()

	key := func(name string) string {
		return expt.SimKey(workload.SizeTest, expt.SimSpec{Bench: name, Policy: "profile", TUs: 2})
	}
	var local, remote string
	for _, name := range workload.Benchmarks {
		switch cl.Owner(key(name)) {
		case nodes[0].url:
			if local == "" {
				local = name
			}
		case nodes[1].url:
			if remote == "" {
				remote = name
			}
		}
	}
	if local == "" || remote == "" {
		t.Skip("batch specs cannot be split across both nodes")
	}

	resp, body := postJSON(t, nodes[0].url+"/v1/batch", fmt.Sprintf(
		`{"size":"test","specs":[{"bench":%q,"policy":"profile","tus":2},{"bench":%q,"policy":"profile","tus":2}]}`,
		local, remote))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines != 2 {
		t.Fatalf("batch returned %d NDJSON lines, want 2", lines)
	}
	id := resp.Header.Get(obs.TraceHeader)
	if id == "" {
		t.Fatalf("response must carry %s", obs.TraceHeader)
	}

	isBatchGraft := func(sp *obs.SpanJSON) bool {
		return sp.Node == nodes[1].url && sp.Name == "http POST /v1/batch"
	}
	tj := fetchTrace(t, nodes[0].url, id, func(tj *obs.TraceJSON) bool {
		fanout := findSpan(tj.Roots, spanNamed("fanout"))
		return fanout != nil &&
			findSpan(fanout.Children, isBatchGraft) != nil &&
			findSpan(fanout.Children, func(sp *obs.SpanJSON) bool {
				return sp.Name == "exec sim" && sp.Attrs["key"] == key(remote)
			}) != nil &&
			findSpan(tj.Roots, func(sp *obs.SpanJSON) bool {
				return sp.Name == "exec sim" && sp.Attrs["key"] == key(local)
			}) != nil
	})

	fanout := findSpan(tj.Roots, spanNamed("fanout"))
	if fanout.Attrs["owner"] != nodes[1].url || fanout.Attrs["peer"] != nodes[1].url ||
		fanout.Attrs["specs"] != "1" {
		t.Errorf("fanout attrs = %v, want owner/peer %s over 1 spec", fanout.Attrs, nodes[1].url)
	}
	if fanout.Attrs["fallback_specs"] != "" {
		t.Errorf("healthy fan-out recorded a fallback: %v", fanout.Attrs)
	}
	graft := findSpan(fanout.Children, isBatchGraft)
	if findSpan([]*obs.SpanJSON{graft}, func(sp *obs.SpanJSON) bool {
		return sp.Name == "exec sim" && sp.Attrs["key"] == key(remote)
	}) == nil {
		t.Error("peer's batch subtree has no exec span for the remote-owned spec")
	}
}

// expoEntry is one parsed series line of an exposition document.
type expoEntry struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	expoNameRe  = regexp.MustCompile(`^spmt_[a-z][a-z0-9_]*$`)
	expoLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parseExposition strictly parses a Prometheus text-format document:
// every family must be HELP'd and TYPE'd before its series, families
// must be consecutive and spmt_-prefixed snake_case, histogram buckets
// must be cumulative with the +Inf bucket equal to _count. Returns the
// series (full name with label set, exactly as serialized) → value.
func parseExposition(t *testing.T, doc string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	types := make(map[string]string)
	var entries []expoEntry
	var current string // family of the series block being read

	// family resolves a series name to its family, peeling histogram
	// sample suffixes only when the family is a histogram.
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for ln, line := range strings.Split(doc, "\n") {
		lno := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", lno, line)
			}
			name := parts[2]
			if !expoNameRe.MatchString(name) {
				t.Fatalf("line %d: family %q is not spmt_-prefixed snake_case", lno, name)
			}
			if parts[1] == "TYPE" {
				if _, dup := types[name]; dup {
					t.Fatalf("line %d: duplicate TYPE for %q", lno, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: bad type %q", lno, parts[3])
				}
				types[name] = parts[3]
				current = name
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed series %q", lno, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", lno, valStr, err)
		}
		name := key
		labels := map[string]string{}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set %q", lno, key)
			}
			name = key[:i]
			for _, lab := range strings.Split(key[i+1:len(key)-1], ",") {
				m := expoLabelRe.FindStringSubmatch(lab)
				if m == nil {
					t.Fatalf("line %d: malformed label %q", lno, lab)
				}
				labels[m[1]] = m[2]
			}
		}
		fam := family(name)
		if _, ok := types[fam]; !ok {
			t.Fatalf("line %d: series %q has no TYPE header", lno, key)
		}
		if fam != current {
			t.Fatalf("line %d: series %q is not consecutive with its family (current %q)", lno, key, current)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", lno, key)
		}
		series[key] = val
		entries = append(entries, expoEntry{name: name, labels: labels, value: val})
	}

	// Histogram shape: per label set, le values ascending, buckets
	// cumulative, +Inf bucket == _count.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		type hist struct {
			lastLe   float64
			lastVal  float64
			inf      float64
			count    float64
			hasInf   bool
			hasCount bool
		}
		groups := make(map[string]*hist)
		gkey := func(labels map[string]string) string {
			var ks []string
			for k, v := range labels {
				if k != "le" {
					ks = append(ks, k+"="+v)
				}
			}
			sort.Strings(ks)
			return "{" + strings.Join(ks, ",") + "}"
		}
		get := func(g string) *hist {
			if groups[g] == nil {
				groups[g] = &hist{lastLe: math.Inf(-1)}
			}
			return groups[g]
		}
		for _, e := range entries {
			switch e.name {
			case fam + "_bucket":
				h := get(gkey(e.labels))
				if e.labels["le"] == "+Inf" {
					h.inf, h.hasInf = e.value, true
					continue
				}
				le, err := strconv.ParseFloat(e.labels["le"], 64)
				if err != nil {
					t.Fatalf("%s: bad le %q", fam, e.labels["le"])
				}
				if le <= h.lastLe {
					t.Errorf("%s %s: le %g out of order after %g", fam, gkey(e.labels), le, h.lastLe)
				}
				if e.value < h.lastVal {
					t.Errorf("%s %s: bucket le=%g not cumulative (%g < %g)", fam, gkey(e.labels), le, e.value, h.lastVal)
				}
				h.lastLe, h.lastVal = le, e.value
			case fam + "_count":
				h := get(gkey(e.labels))
				h.count, h.hasCount = e.value, true
			}
		}
		for g, h := range groups {
			if !h.hasInf || !h.hasCount {
				t.Errorf("%s %s: missing +Inf bucket or _count", fam, g)
				continue
			}
			if h.inf < h.lastVal || h.inf != h.count {
				t.Errorf("%s %s: +Inf bucket %g vs last %g and count %g", fam, g, h.inf, h.lastVal, h.count)
			}
		}
	}
	return series
}

// TestMetricsExposition scrapes /metrics after real traffic, strictly
// parses the exposition, and cross-checks the load-bearing series
// against the /v1/stats counters they must mirror.
func TestMetricsExposition(t *testing.T) {
	nodes := startTestCluster(t, 1)
	base := nodes[0].url

	// Traffic: a cold simulate (executes), the same simulate again
	// (memory hit), and an analyze.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, base+"/v1/simulate", `{"bench":"compress","size":"test","tus":4}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
		}
	}
	postJSON(t, base+"/v1/analyze", `{"bench":"compress","size":"test"}`)
	nodes[0].srv.Engine().Disk().Flush() // settle async writes so queue gauges are stable

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, string(doc))

	var st statsResponse
	if resp := getJSON(t, base+"/v1/stats?scope=local", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}

	// No engine/shard traffic ran between the scrape and the stats
	// snapshot, so these totals must agree exactly.
	for key, want := range map[string]float64{
		"spmt_engine_jobs_executed_total":           float64(st.Engine.Executed),
		"spmt_engine_jobs_deduped_total":            float64(st.Engine.Deduped),
		"spmt_sched_workers":                        float64(st.Engine.Sched.Workers),
		`spmt_store_hits_total{tier="mem"}`:         float64(st.Engine.Cache.Hits),
		`spmt_store_misses_total{tier="mem"}`:       float64(st.Engine.Cache.Misses),
		`spmt_store_hits_total{tier="disk"}`:        float64(st.Engine.Disk.Hits),
		"spmt_store_disk_writes_total":              float64(st.Engine.Disk.Writes),
		"spmt_store_disk_async_writes_total":        float64(st.Engine.Disk.AsyncWrites),
		"spmt_shard_members":                        float64(len(st.Shard.Members)),
		"spmt_shard_proxied_total":                  float64(st.Shard.Proxied),
		"spmt_shard_artifacts_served_total":         float64(st.Shard.ArtifactsServed),
		"spmt_shard_replication_push_skipped_total": float64(st.Shard.Replication.PushSkipped),
		"spmt_http_panics_total":                    float64(st.HTTPPanics),
	} {
		got, ok := series[key]
		if !ok {
			t.Errorf("series %s missing from the exposition", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, /v1/stats says %g", key, got, want)
		}
	}
	if series["spmt_engine_jobs_executed_total"] == 0 {
		t.Error("no engine executions recorded after real traffic")
	}
	if series[`spmt_store_hits_total{tier="mem"}`] == 0 {
		t.Error("repeat simulate did not record a memory-tier hit")
	}
	if n := series[`spmt_engine_job_duration_seconds_count{kind="sim"}`]; n < 1 {
		t.Errorf("sim latency histogram count = %g, want >= 1", n)
	}
	if n := series[`spmt_http_requests_total{endpoint="/v1/simulate",code="200"}`]; n != 2 {
		t.Errorf("http counter for /v1/simulate = %g, want 2", n)
	}
	if n := series[`spmt_http_request_duration_seconds_count{endpoint="/v1/simulate"}`]; n != 2 {
		t.Errorf("http latency count for /v1/simulate = %g, want 2", n)
	}
	if series["spmt_traces_started_total"] < 3 {
		t.Errorf("traces_started = %g, want >= 3", series["spmt_traces_started_total"])
	}

	// A second scrape must now expose the first scrape's own request.
	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	series2 := parseExposition(t, string(doc2))
	if n := series2[`spmt_http_requests_total{endpoint="/metrics",code="200"}`]; n < 1 {
		t.Errorf("second scrape does not count the first: %g", n)
	}
}

// TestTraceEndpoints covers the listing and the error paths: recent
// traces appear newest-first with roots named, unknown IDs 404, bad
// limits 400, and trace-query requests never trace themselves.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/analyze", `{"bench":"compress","size":"test"}`)

	var list tracesResponse
	if resp := getJSON(t, ts.URL+"/v1/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d", resp.StatusCode)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("listing has %d traces, want exactly the analyze (got %+v)", len(list.Traces), list.Traces)
	}
	sum := list.Traces[0]
	if sum.Root != "http POST /v1/analyze" || sum.Spans == 0 {
		t.Errorf("summary = %+v, want the analyze root with spans", sum)
	}

	var tj obs.TraceJSON
	if resp := getJSON(t, ts.URL+"/v1/traces/"+sum.ID, &tj); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", resp.StatusCode)
	}
	if findSpan(tj.Roots, func(sp *obs.SpanJSON) bool { return strings.HasPrefix(sp.Name, "exec ") }) == nil {
		t.Error("analyze trace reaches no engine exec span")
	}

	for path, want := range map[string]int{
		"/v1/traces/nonesuch": http.StatusNotFound,
		"/v1/traces?limit=x":  http.StatusBadRequest,
		"/v1/traces?limit=0":  http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestOpsHandler covers the separate ops listener: health, metrics,
// and the pprof index all answer.
func TestOpsHandler(t *testing.T) {
	srv, api := newTestServer(t)
	postJSON(t, api.URL+"/v1/analyze", `{"bench":"compress","size":"test"}`)
	ops := httptest.NewServer(srv.OpsHandler())
	t.Cleanup(ops.Close)

	resp, err := http.Get(ops.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parseExposition(t, string(doc))
	if series["spmt_engine_jobs_executed_total"] == 0 {
		t.Error("ops /metrics does not reflect API traffic")
	}

	resp, err = http.Get(ops.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}

	// The ops mux serves no API: a /v1 path must 404, keeping the
	// profiling port safely unroutable to compute.
	resp, err = http.Get(ops.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ops /v1/stats status %d, want 404", resp.StatusCode)
	}
}
