package cluster

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Allocation budget of one warmed 16-TU compress/small simulation,
// about 1.25× what it measured when thread-unit ledgers became pooled
// and the register index moved onto the trace (≈25.5k allocations and
// ≈3.5 MB; before that, ≈123k and ≈34 MB, most of it 112 fresh rings
// and a rebuilt register index per call).
const (
	simAllocBudget = 32_000
	simByteBudget  = 4_400_000
)

// TestSimulateAllocBudget keeps per-call ledgers and per-call register
// indexes from coming back: either alone would blow the byte budget
// several times over.
func TestSimulateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small-size simulations")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled ledgers at random under the race detector")
	}
	tr, tab, _ := pipeline(t, workload.MustGenerate("compress", workload.SizeSmall), core.Config{})
	cfg := Config{TUs: 16, Pairs: tab}
	sim := func() {
		if _, err := Simulate(tr, cfg); err != nil {
			t.Fatal(err)
		}
	}
	sim() // warm: builds the trace's indexes and fills the ledger pool

	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sim()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, sim)
	t.Logf("%.0f allocs, %d B per simulation", allocs, bytes)
	if allocs > simAllocBudget {
		t.Errorf("Simulate made %.0f allocations, budget %d", allocs, simAllocBudget)
	}
	if bytes > simByteBudget {
		t.Errorf("Simulate allocated %d B, budget %d", bytes, simByteBudget)
	}
}
