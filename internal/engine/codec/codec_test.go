package codec_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine/codec"
	"repro/internal/isa"
	"repro/internal/linalg"
	"repro/internal/reach"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fill populates every exported field of v with distinct values, so a
// codec that drops any field fails the round-trip comparison below.
func fill(v reflect.Value, ctr *int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*ctr++
		v.SetInt(int64(*ctr))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*ctr++
		v.SetUint(uint64(*ctr))
	case reflect.Float32, reflect.Float64:
		*ctr++
		v.SetFloat(float64(*ctr) + 0.5)
	case reflect.String:
		*ctr++
		v.SetString(fmt.Sprintf("s%d", *ctr))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(s.Index(i), ctr)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(k, ctr)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(val, ctr)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), ctr)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), ctr)
			}
		}
	}
}

// equalExported compares two values over exported fields only —
// unexported state (lazy indexes, sync.Once) is codec-irrelevant.
func equalExported(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalExported(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Type().Field(i).IsExported() {
				continue
			}
			if !equalExported(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalExported(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !equalExported(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// TestFilledRoundTrips fills every artifact type exhaustively and
// round-trips it through the codec: a marshal or unmarshal that misses
// a field cannot pass.
func TestFilledRoundTrips(t *testing.T) {
	fixGraph := func(g *cfg.Graph) {
		// ByPC is derived from Nodes (the codec rebuilds it), and the
		// adjacency list count must match the node count.
		g.Succ = g.Succ[:0]
		for range g.Nodes {
			g.Succ = append(g.Succ, []cfg.Edge{{To: 1, W: 2.5}, {To: 3, W: 4.5}})
		}
		g.ByPC = make(map[uint32]int, len(g.Nodes))
		for i := range g.Nodes {
			g.ByPC[g.Nodes[i].PC] = i
		}
	}
	fixMatrix := func(m *linalg.Matrix) { m.Rows, m.Cols = 1, len(m.Data) }

	artifacts := []struct {
		name string
		make func(ctr *int) any
	}{
		{"program", func(ctr *int) any {
			p := new(isa.Program)
			fill(reflect.ValueOf(p).Elem(), ctr)
			return p
		}},
		{"trace", func(ctr *int) any {
			tr := new(trace.Trace)
			fill(reflect.ValueOf(tr).Elem(), ctr)
			return tr
		}},
		{"profile", func(ctr *int) any {
			pr := new(emu.Profile)
			fill(reflect.ValueOf(pr).Elem(), ctr)
			return pr
		}},
		{"emu-result", func(ctr *int) any {
			r := new(emu.Result)
			fill(reflect.ValueOf(r).Elem(), ctr)
			// A real emulation shares one program between trace and
			// profile; the codec restores exactly that aliasing.
			r.Profile.Program = r.Trace.Program
			return r
		}},
		{"graph", func(ctr *int) any {
			g := new(cfg.Graph)
			fill(reflect.ValueOf(g).Elem(), ctr)
			fixGraph(g)
			return g
		}},
		{"matrix", func(ctr *int) any {
			m := new(linalg.Matrix)
			fill(reflect.ValueOf(m).Elem(), ctr)
			fixMatrix(m)
			return m
		}},
		{"reach-result", func(ctr *int) any {
			r := new(reach.Result)
			fill(reflect.ValueOf(r).Elem(), ctr)
			fixGraph(r.G)
			fixMatrix(r.Prob)
			fixMatrix(r.Dist)
			return r
		}},
		{"table", func(ctr *int) any {
			tab := new(core.Table)
			fill(reflect.ValueOf(tab).Elem(), ctr)
			return tab
		}},
		{"sim-result", func(ctr *int) any {
			r := new(cluster.Result)
			fill(reflect.ValueOf(r).Elem(), ctr)
			return r
		}},
	}

	c := codec.New()
	for _, tc := range artifacts {
		t.Run(tc.name, func(t *testing.T) {
			ctr := 0
			orig := tc.make(&ctr)
			kind, data, ok, err := c.Encode(orig)
			if err != nil || !ok {
				t.Fatalf("Encode(%T) = %q, ok=%v, err=%v", orig, kind, ok, err)
			}
			got, err := c.Decode(kind, data)
			if err != nil {
				t.Fatalf("Decode(%q): %v", kind, err)
			}
			if reflect.TypeOf(got) != reflect.TypeOf(orig) {
				t.Fatalf("Decode type = %T, want %T", got, orig)
			}
			if !equalExported(reflect.ValueOf(orig), reflect.ValueOf(got)) {
				t.Errorf("round trip lost data:\norig: %+v\ngot:  %+v", orig, got)
			}
			// Deterministic encoding: a second encode of the decoded
			// value is byte-identical.
			_, data2, _, err := c.Encode(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Error("re-encode of decoded artifact differs (non-deterministic encoding)")
			}
		})
	}
}

func TestUnsupportedAndNilTypesAreMemoryOnly(t *testing.T) {
	c := codec.New()
	for _, v := range []any{42, "str", (*cluster.Result)(nil), (*core.Table)(nil), nil} {
		if kind, _, ok, err := c.Encode(v); ok || err != nil {
			t.Errorf("Encode(%#v) = %q, ok=%v, err=%v; want memory-only", v, kind, ok, err)
		}
	}
	if _, err := c.Decode("no-such-kind", nil); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestCorruptPayloadsErrorCleanly(t *testing.T) {
	c := codec.New()
	m := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	kind, data, _, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"version":   append([]byte{99}, data[1:]...),
	} {
		if _, err := c.Decode(kind, bad); err == nil {
			t.Errorf("%s payload must error", name)
		}
	}
}

// TestAllBenchmarkProgramsRoundTrip round-trips every benchmark's
// generated program: instruction mixes differ per benchmark (immediate
// widths change the encoded size), so one benchmark alone can miss a
// decode-guard bug another trips.
func TestAllBenchmarkProgramsRoundTrip(t *testing.T) {
	c := codec.New()
	for _, name := range workload.Benchmarks {
		prog, err := workload.Generate(name, workload.SizeTest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kind, data, ok, err := c.Encode(prog)
		if err != nil || !ok {
			t.Fatalf("%s: Encode ok=%v err=%v", name, ok, err)
		}
		got, err := c.Decode(kind, data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !equalExported(reflect.ValueOf(prog), reflect.ValueOf(got)) {
			t.Errorf("%s: program changed across round trip", name)
		}
	}
}

// TestPipelineArtifactsRoundTrip runs the real pipeline on one small
// benchmark and round-trips every stage artifact, asserting that a
// decoded simulation result renders byte-identical JSON — the property
// the server's determinism guarantee rests on.
func TestPipelineArtifactsRoundTrip(t *testing.T) {
	prog, err := workload.Generate("compress", workload.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.Run(prog, emu.Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Trace.BuildIndex()
	full := cfg.Build(res.Profile)
	g, err := full.Prune(0.9, 256)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := reach.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := core.Select(res.Profile, g, rr, res.Trace, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cluster.Simulate(res.Trace, cluster.Config{TUs: 4, Pairs: tab, SpawnWindowFactor: 4})
	if err != nil {
		t.Fatal(err)
	}

	c := codec.New()
	roundTrip := func(v any) any {
		t.Helper()
		kind, data, ok, err := c.Encode(v)
		if err != nil || !ok {
			t.Fatalf("Encode(%T) ok=%v err=%v", v, ok, err)
		}
		got, err := c.Decode(kind, data)
		if err != nil {
			t.Fatalf("Decode(%T): %v", v, err)
		}
		return got
	}

	// Trace: events and index behaviour survive.
	tr2 := roundTrip(res.Trace).(*trace.Trace)
	if tr2.Len() != res.Trace.Len() {
		t.Fatalf("trace length %d -> %d", res.Trace.Len(), tr2.Len())
	}
	probe := res.Trace.Events[res.Trace.Len()/2].PC
	if a, b := res.Trace.NextOccurrence(probe, 0), tr2.NextOccurrence(probe, 0); a != b {
		t.Errorf("NextOccurrence diverges after round trip: %d vs %d", a, b)
	}

	// Emu result: the decoded profile shares the decoded trace's
	// program, as a fresh run does.
	er2 := roundTrip(res).(*emu.Result)
	if er2.Profile.Program != er2.Trace.Program {
		t.Error("decoded emu result must share one program between trace and profile")
	}
	if er2.Instrs != res.Instrs || er2.Profile.TotalInstrs != res.Profile.TotalInstrs {
		t.Error("emu result counters lost in round trip")
	}

	// Graph, reach, table: exported-field equality.
	for _, pair := range []struct {
		name string
		a, b any
	}{
		{"graph", g, roundTrip(g)},
		{"reach", rr, roundTrip(rr)},
		{"table", tab, roundTrip(tab)},
	} {
		if !equalExported(reflect.ValueOf(pair.a), reflect.ValueOf(pair.b)) {
			t.Errorf("%s artifact changed across round trip", pair.name)
		}
	}

	// Simulation result: byte-identical JSON (the /v1/simulate body).
	sim2 := roundTrip(sim).(*cluster.Result)
	j1, err := json.Marshal(sim)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(sim2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("simulation result JSON differs after round trip:\n%s\nvs\n%s", j1, j2)
	}
}
