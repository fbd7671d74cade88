package expt

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestSchedDeterminismAcrossWorkerCounts pins the scheduler's
// reserve/commit contract end to end: a full figure sweep — the
// per-bench pipeline fan-out, the engine's dependency layers and the
// sim grids all riding the same work-stealing pool — must render
// byte-identical output for every worker count, including one.
func TestSchedDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep at four worker counts")
	}
	names := []string{"compress"}
	var ref []byte
	for _, w := range []int{1, 2, 3, 8} {
		s, err := NewSuiteEngine(engine.New(engine.Options{Workers: w}), workload.SizeTest, names)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		out := renderAll(t, s)
		if ref == nil {
			ref = out
		} else if !bytes.Equal(out, ref) {
			t.Fatalf("w=%d: figure sweep diverged from w=1 output", w)
		}
	}
}

// TestNestedGroupStress drives the nesting the pool carries — bench
// pipelines, then a batch of sims that join their table and trace
// artifacts through singleflight — on a deliberately tiny pool,
// repeatedly, and pins zero result divergence against a serial engine.
// Each round builds two benches' pipelines cold (nothing prewarmed),
// so pipeline and sim tasks contend for the same three workers while
// singleflight joins lend cores back and forth. It exercises no
// reach-source or tile tasks: reach and its linalg kernels run
// serially inside their one engine job.
func TestNestedGroupStress(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated cold pipeline builds")
	}
	grid := func(s *Suite) []SimReq {
		var reqs []SimReq
		for _, b := range s.Benches {
			for _, tus := range []int{1, 4, 16} {
				reqs = append(reqs,
					SimReq{Bench: b, Spec: SimSpec{Policy: "profile", TUs: tus}},
					SimReq{Bench: b, Spec: SimSpec{Policy: "heuristics", TUs: tus}})
			}
		}
		return reqs
	}
	run := func(workers int) []string {
		s, err := NewSuiteEngine(engine.New(engine.Options{Workers: workers}), workload.SizeTest,
			[]string{"compress", "ijpeg"})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		out, err := s.SimBatch(grid(s))
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		keys := make([]string, len(out))
		for i, r := range out {
			keys[i] = fmt.Sprintf("%+v", *r)
		}
		return keys
	}
	ref := run(1)
	for round := 0; round < 3; round++ {
		got := run(3)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("round %d, result %d diverged from serial:\nserial: %s\nw=3:    %s",
					round, i, ref[i], got[i])
			}
		}
	}
}

// TestGoroutineCountBoundedBySweep is the acceptance bound: goroutine
// count during a full sweep must be O(workers) — primaries plus a
// bounded set of Block substitutes — never O(workers × jobs).
func TestGoroutineCountBoundedBySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build and sweep")
	}
	const workers = 8
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	sample := func() {
		n := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	}
	// The cold build fans out one pipeline task per bench.
	eng := engine.New(engine.Options{Workers: workers})
	s, err := NewSuiteEngine(eng, workload.SizeTest, []string{"compress", "ijpeg"})
	if err != nil {
		t.Fatal(err)
	}
	sample()
	var reqs []SimReq
	for _, b := range s.Benches {
		for _, tus := range []int{1, 2, 4, 8, 16} {
			reqs = append(reqs, SimReq{Bench: b, Spec: SimSpec{Policy: "profile", TUs: tus}})
		}
	}
	if err := s.SimEach(context.Background(), reqs, func(int, *cluster.Result, error) { sample() }); err != nil {
		t.Fatal(err)
	}
	sample()
	// Budget: the 8 primaries, substitutes covering singleflight joins
	// (bounded by concurrent blocked joins, a small multiple of W), and
	// slack for the runtime and harness.
	limit := int64(before + workers + 8*workers + 16)
	if got := peak.Load(); got > limit {
		t.Fatalf("peak goroutines %d > limit %d (baseline %d, %d workers): fan-out is not O(workers)",
			got, limit, before, workers)
	}
}

// sweepGrid is the mixed /v1/batch-shaped workload the scheduler bench
// measures: every bench × policy × TU-count combination, so sim tasks
// and table builds all land on the pool in one burst.
func sweepGrid(s *Suite) []SimReq {
	var reqs []SimReq
	for _, b := range s.Benches {
		for _, policy := range []string{"none", "profile", "heuristics"} {
			for _, tus := range []int{1, 2, 4, 8, 16} {
				reqs = append(reqs, SimReq{Bench: b, Spec: SimSpec{Policy: policy, TUs: tus}})
			}
		}
	}
	return reqs
}

// benchmarkSchedSweep measures one cold end-to-end sweep: pipeline
// build (emu → cfg → reach) plus the mixed sim grid, per iteration.
func benchmarkSchedSweep(b *testing.B, workers int) {
	names := []string{"compress", "ijpeg", "li", "go"}
	for i := 0; i < b.N; i++ {
		// Collect the previous iteration's (and sub-benchmark's) engine
		// off the clock: each sweep allocates hundreds of MB, and
		// letting its collection land inside the next timed iteration
		// makes later sub-benchmarks read slower than earlier ones.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		s, err := NewSuiteEngine(engine.New(engine.Options{Workers: workers}), workload.SizeTest, names)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SimBatch(sweepGrid(s)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedSweep(b *testing.B) {
	full := runtime.GOMAXPROCS(0)
	half := full / 2
	if half < 1 {
		half = 1
	}
	b.Run("unified/w=1", func(b *testing.B) { benchmarkSchedSweep(b, 1) })
	b.Run("unified/w=half", func(b *testing.B) { benchmarkSchedSweep(b, half) })
	b.Run("unified/w=full", func(b *testing.B) { benchmarkSchedSweep(b, full) })
}
