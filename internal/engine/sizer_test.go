package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/reach"
	"repro/internal/trace"
	"repro/internal/workload"
)

// liveHeap returns the live heap after a full collection. The second
// cycle also empties sync.Pools (a pooled object survives one cycle in
// the victim cache), so pooled simulator hardware is not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSizerHonesty holds N instances of every artifact type the engine
// caches and weighs them: the live heap each instance retains must lie
// within [½×, 2×] of what its ApproxBytes charges, or the cache's byte
// budget, eviction and bytes_resident are measuring something else. An
// artifact that pins its builder (a simulation result pointing into
// its simulator) fails the upper bound by orders of magnitude.
func TestSizerHonesty(t *testing.T) {
	if testing.Short() {
		t.Skip("weighs several simulations")
	}
	prog := workload.MustGenerate("compress", workload.SizeTest)
	run, err := emu.Run(prog, emu.Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(run.Profile).Prune(0.90, 256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reach.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	run.Trace.BuildIndex()
	tab, err := core.Select(run.Profile, g, r, run.Trace, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run.Trace.Regs() // shared by every simulation below, not per result

	must := func(v engine.Sizer, err error) engine.Sizer {
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// A cached trace is one the simulator reads: both indexes built.
	indexed := func(tr *trace.Trace) *trace.Trace {
		tr.BuildIndex()
		tr.Regs()
		return tr
	}
	simulate := func(c cluster.Config) func() engine.Sizer {
		return func() engine.Sizer {
			c.Pairs = tab
			return must(cluster.Simulate(run.Trace, c))
		}
	}
	cases := []struct {
		name string
		n    int
		make func() engine.Sizer
	}{
		{"trace.Trace", 4, func() engine.Sizer {
			return indexed(&trace.Trace{Program: prog, Events: slices.Clone(run.Trace.Events)})
		}},
		{"isa.Program", 64, func() engine.Sizer {
			return must(workload.Generate("compress", workload.SizeTest))
		}},
		{"emu.Profile", 64, func() engine.Sizer {
			res, err := emu.Run(prog, emu.Config{})
			return must(res.Profile, err)
		}},
		{"emu.Result", 4, func() engine.Sizer {
			res, err := emu.Run(prog, emu.Config{CollectTrace: true})
			if err == nil {
				indexed(res.Trace)
			}
			return must(res, err)
		}},
		{"cfg.Graph", 256, func() engine.Sizer {
			return must(cfg.Build(run.Profile).Prune(0.90, 256))
		}},
		{"linalg.Matrix", 256, func() engine.Sizer { return r.Prob.Clone() }},
		{"reach.Result", 256, func() engine.Sizer { return must(reach.Compute(g)) }},
		{"core.Table", 32, func() engine.Sizer {
			return must(core.Select(run.Profile, g, r, run.Trace, core.Config{}))
		}},
		{"cluster.Result", 16, simulate(cluster.Config{TUs: 16})},
		{"cluster.Result/pair-stats", 8, simulate(cluster.Config{TUs: 16, CollectPairStats: true})},
	}
	for _, c := range cases {
		// Weigh the second half of the instances only: one-time
		// allocations the first calls make (lazy tables, pool
		// bookkeeping) land in the first half and cancel out.
		held := make([]engine.Sizer, 2*c.n)
		for i := range held[:c.n] {
			held[i] = c.make()
		}
		before := liveHeap()
		for i := range held[c.n:] {
			held[c.n+i] = c.make()
		}
		after := liveHeap()
		per := (float64(after) - float64(before)) / float64(c.n)
		declared := float64(held[0].ApproxBytes())
		ratio := per / declared
		t.Logf("%-26s retains %10.0f B, declares %10.0f B (%.2f×)", c.name, per, declared, ratio)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: retains %.0f B per instance but ApproxBytes declares %.0f B (%.2f×, want within [0.5, 2])",
				c.name, per, declared, ratio)
		}
		runtime.KeepAlive(held)
	}
}
