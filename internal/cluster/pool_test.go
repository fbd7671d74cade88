package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// poolConfigs differ in exactly the knobs that size or seed recycled
// hardware: thread units, issue width and value predictor.
var poolConfigs = []Config{
	{TUs: 16},
	{TUs: 4, IssueWidth: 2, Predictor: Stride},
	{TUs: 16, IssueWidth: 8, Predictor: Context, CollectPairStats: true},
	{TUs: 8, Predictor: LastValue, Reassign: true, RemovalCycles: 50},
	{TUs: 2, IssueWidth: 1, Predictor: Hybrid, SpawnOverhead: 8},
	{TUs: 1},
}

// TestPoolingKeepsResults: recycled thread-unit ledgers and reorder
// buffers must not change a single simulated cycle. Configs with
// different TU counts, issue widths and predictors are interleaved —
// serially and from concurrent goroutines, so every pooled ledger is
// reused under a different shape — and every result must match, byte
// for byte, the one computed on newly allocated hardware. Two
// collections before each reference simulation empty the ledger pool,
// so no reference sees recycled state.
func TestPoolingKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	tr, tab, _ := pipeline(t, workload.MustGenerate("compress", workload.SizeTest), core.Config{})
	ref := make(map[int][]byte, len(poolConfigs))
	for i := range poolConfigs {
		runtime.GC()
		runtime.GC()
		ref[i] = simBytes(t, tr, tab, i)
	}
	check := func(how string, i int, got []byte) {
		if !bytes.Equal(got, ref[i]) {
			t.Errorf("%s: config %d (%+v) differs from fresh hardware", how, i, poolConfigs[i])
		}
	}

	n := len(poolConfigs)
	for round := 0; round < 2; round++ {
		for k := 0; k < n; k++ {
			i := (n - 1 - k + round) % n // reverse order, rotated each round
			check("serial", i, simBytes(t, tr, tab, i))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + 2*g) % n
				check(fmt.Sprintf("goroutine %d", g), i, simBytes(t, tr, tab, i))
			}
		}(g)
	}
	wg.Wait()
}

// TestExceededCyclesReturnsHardware: a simulation aborted by MaxCycles
// must still hand its ledgers back, so a failing request cannot drain
// the pool into fresh allocations.
func TestExceededCyclesReturnsHardware(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled ledgers at random under the race detector")
	}
	tr, tab, _ := pipeline(t, workload.MustGenerate("compress", workload.SizeTest), core.Config{})
	cfg := Config{TUs: 16, Pairs: tab, MaxCycles: 2000}
	fail := func() {
		if _, err := Simulate(tr, cfg); err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("MaxCycles run: err = %v, want exceeded", err)
		}
	}
	fail() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		fail()
	}
	runtime.ReadMemStats(&after)
	// Sixteen leaked ledger sets would cost ~14 MB per run.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<20 {
		t.Errorf("an aborted simulation allocates %d B per run; its ledgers did not go back to the pool", per)
	}
}

// simBytes runs pool config i and returns its result's encoding.
func simBytes(t *testing.T, tr *trace.Trace, tab *core.Table, i int) []byte {
	c := poolConfigs[i]
	if c.TUs > 1 {
		c.Pairs = tab
	}
	res, err := Simulate(tr, c)
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := res.MarshalBinary()
	if err != nil {
		t.Error(err)
	}
	return b
}
