package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/expt"
	"repro/internal/workload"
)

// validResult is a result that passes every check for validSpec.
func validResult() *cluster.Result {
	return &cluster.Result{
		Cycles: 500, Committed: 1000, Fetched: 1200, IPC: 2,
		AvgActiveThreads: 3, AvgAllocatedThreads: 4,
		ThreadsCommitted: 5, Spawns: 8, VPLookups: 10, VPHits: 10,
	}
}

var validSpec = Spec{Bench: "go", Policy: "profile", TUs: 16, Predictor: "perfect"}

func newTestChecker() *Checker { return NewChecker(map[string]int64{"go": 1000, "li": 900}) }

func TestSimAcceptsValid(t *testing.T) {
	if err := newTestChecker().Sim(validSpec, validResult()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.MarshalIndent(map[string]any{
		"bench": "go", "size": "test", "policy": "profile", "tus": 16, "result": validResult(),
	}, "", "  ")
	if err := newTestChecker().SimBody(validSpec, body); err != nil {
		t.Fatal(err)
	}
}

func TestSimRejectsMutations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		mutate func(r *cluster.Result)
	}{
		{"committed off by one", validSpec, func(r *cluster.Result) { r.Committed++; r.Fetched++; r.IPC = float64(r.Committed) / float64(r.Cycles) }},
		{"fetched below committed", validSpec, func(r *cluster.Result) { r.Fetched = 999 }},
		{"ipc times cycles", validSpec, func(r *cluster.Result) { r.IPC = 2.01 }},
		{"active above allocated", validSpec, func(r *cluster.Result) { r.AvgActiveThreads = 4.5 }},
		{"allocated above TUs", validSpec, func(r *cluster.Result) { r.AvgActiveThreads, r.AvgAllocatedThreads = 16, 16.5 }},
		{"VP hits above lookups", Spec{Bench: "go", Policy: "profile", TUs: 16, Predictor: "stride"}, func(r *cluster.Result) { r.VPHits = 11 }},
		{"perfect predictor misses", validSpec, func(r *cluster.Result) { r.VPHits = 9 }},
		{"threads committed above spawns", validSpec, func(r *cluster.Result) { r.ThreadsCommitted = 9 }},
		{"spawns under none", Spec{Bench: "go", Policy: "none", TUs: 4, Predictor: "perfect"}, func(*cluster.Result) {}},
		{"unknown benchmark", Spec{Bench: "gcc", Policy: "profile", TUs: 16, Predictor: "perfect"}, func(*cluster.Result) {}},
	} {
		r := validResult()
		tc.mutate(r)
		if err := newTestChecker().Sim(tc.spec, r); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSimNoneCyclesIndependentOfTUs(t *testing.T) {
	c := newTestChecker()
	none := func(tus int, cycles int64) error {
		r := validResult()
		r.Spawns, r.ThreadsCommitted = 0, 0
		r.AvgActiveThreads, r.AvgAllocatedThreads = 1, 1
		r.Cycles, r.IPC = cycles, 1000/float64(cycles)
		return c.Sim(Spec{Bench: "go", Policy: "none", TUs: tus, Predictor: "perfect"}, r)
	}
	if err := none(1, 500); err != nil {
		t.Fatal(err)
	}
	if err := none(16, 500); err != nil {
		t.Fatal(err)
	}
	if err := none(4, 501); err == nil {
		t.Error("policy none with a different cycle count at another TU count accepted")
	}
}

func figure(id string, cols []string, rows [][]string) []byte {
	b, _ := json.Marshal(map[string]any{"id": id, "columns": cols, "rows": rows})
	return b
}

var fig3Cols = []string{"benchmark", "base-cycles", "smt-cycles", "speed-up"}

// fig3Rows has speed-ups 4 and 3, whose harmonic mean is 3.43.
func fig3Rows() [][]string {
	return [][]string{{"go", "1000", "250", "4.00"}, {"li", "900", "300", "3.00"}, {"Hmean", "", "", "3.43"}}
}

func TestFigureAcceptsValid(t *testing.T) {
	base := map[string]int64{"go": 1000, "li": 900}
	for id, body := range map[string][]byte{
		"fig2": figure("fig2", []string{"benchmark", "coverage"}, [][]string{{"go", "93.5%"}, {"Amean", ""}}),
		"fig3": figure("fig3", fig3Cols, fig3Rows()),
		"fig4": figure("fig4", []string{"benchmark", "active", "allocated"}, [][]string{{"go", "7.5", "9.1"}, {"Amean", "7.5", ""}}),
		"fig9": figure("fig9", []string{"benchmark", "x"}, [][]string{{"go", "1"}}),
	} {
		if err := Figure(id, body, base); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestFigureRejectsMutations(t *testing.T) {
	base := map[string]int64{"go": 1000, "li": 900}
	altered := func(r, c int, v string) [][]string {
		rows := fig3Rows()
		rows[r][c] = v
		return rows
	}
	for name, tc := range map[string]struct {
		id   string
		body []byte
		base map[string]int64
	}{
		"fig3 altered Hmean":      {"fig3", figure("fig3", fig3Cols, altered(2, 3, "3.44")), base},
		"fig3 altered speed-up":   {"fig3", figure("fig3", fig3Cols, altered(0, 3, "4.10")), base},
		"fig3 base is not none/1": {"fig3", figure("fig3", fig3Cols, fig3Rows()), map[string]int64{"go": 1001, "li": 900}},
		"fig2 coverage below 90%": {"fig2", figure("fig2", []string{"benchmark", "coverage"}, [][]string{{"go", "89.9%"}, {"Amean", ""}}), nil},
		"fig4 active > allocated": {"fig4", figure("fig4", []string{"b", "a", "l"}, [][]string{{"go", "9.2", "9.1"}, {"Amean", "", ""}}), nil},
		"fig4 allocated above 16": {"fig4", figure("fig4", []string{"b", "a", "l"}, [][]string{{"go", "9.2", "16.5"}, {"Amean", "", ""}}), nil},
		"wrong figure id":         {"fig3", figure("fig4", fig3Cols, fig3Rows()), base},
		"truncated figure body":   {"fig3", figure("fig3", fig3Cols, fig3Rows())[:40], base},
	} {
		if err := Figure(tc.id, tc.body, tc.base); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPairs(t *testing.T) {
	body := func(kind string, prob, dist float64) []byte {
		b, _ := json.Marshal(map[string]any{"pairs": []map[string]any{
			{"kind": "profile", "prob": 0.99, "dist": 40},
			{"kind": kind, "prob": prob, "dist": dist},
		}})
		return b
	}
	if n, err := Pairs(body("profile", 0.95, 32)); err != nil || n != 2 {
		t.Fatalf("checked %d profile pairs: %v", n, err)
	}
	if n, err := Pairs(body("return", 0.5, 3)); err != nil || n != 1 {
		t.Fatalf("non-profile pair held to the profile thresholds (%d checked): %v", n, err)
	}
	if _, err := Pairs(body("profile", 0.94, 40)); err == nil {
		t.Error("profile pair below probability 0.95 accepted")
	}
	if _, err := Pairs(body("profile", 0.99, 31)); err == nil {
		t.Error("profile pair below distance 32 accepted")
	}
}

func TestBatchLineAndSameBody(t *testing.T) {
	sim := []byte("{\n  \"bench\": \"go\",\n  \"tus\": 16\n}\n")
	line := []byte(`{"index":3,"bench":"go","tus":16}` + "\n")
	if err := BatchLine(line, 3, sim); err != nil {
		t.Fatal(err)
	}
	flipped := []byte(strings.Replace(string(line), "16", "17", 1))
	if BatchLine(flipped, 3, sim) == nil {
		t.Error("batch line with a flipped byte accepted")
	}
	if BatchLine(line, 4, sim) == nil {
		t.Error("batch line with the wrong index accepted")
	}
	if err := SameBody("x", sim, append([]byte(nil), sim...)); err != nil {
		t.Fatal(err)
	}
	other := append([]byte(nil), sim...)
	other[5] ^= 1
	if SameBody("x", other, sim) == nil {
		t.Error("restarted body with a flipped byte accepted")
	}
}

func TestNoRecompute(t *testing.T) {
	stats := func(kind string, n int) []byte {
		b, _ := json.Marshal(map[string]any{"engine": map[string]any{"latency": map[string]any{
			"bench": map[string]int{"count": 8}, kind: map[string]int{"count": n},
		}}})
		return b
	}
	if err := NoRecompute(stats("sim", 0)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"sim", "emu", "table", "reach"} {
		if NoRecompute(stats(kind, 1)) == nil {
			t.Errorf("restarted node that ran a %s job accepted", kind)
		}
	}
}

func TestParseSimKey(t *testing.T) {
	c, err := parseSimKey("sim/test/1a2b/gcc/profile-pred/tu12/p2/ov7/rm50/oc3/ratrue/ms40")
	if err != nil {
		t.Fatal(err)
	}
	want := simCfg{Bench: "gcc", Policy: "profile-pred", TUs: 12, Pred: cluster.Context,
		Overhead: 7, Removal: 50, Occur: 3, Reassign: true, MinSize: 40}
	if c != want {
		t.Fatalf("got %+v, want %+v", c, want)
	}
	if _, err := parseSimKey("sim/test/1a2b/gcc/profile/tux/p2/ov7/rm50/oc3/ratrue/ms40"); err == nil {
		t.Error("malformed key accepted")
	}
	// The engine's own key for a spec parses back to that spec.
	sp := want.spec()
	got, err := parseSimKey(expt.SimKey(workload.SizeTest, sp))
	if err != nil || got.spec() != sp {
		t.Fatalf("round trip: got %+v (%v), want %+v", got, err, want)
	}
}
