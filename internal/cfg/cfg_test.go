package cfg

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

func profileOf(t *testing.T, name string) *emu.Profile {
	t.Helper()
	p := workload.MustGenerate(name, workload.SizeTest)
	res, err := emu.Run(p, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Profile
}

func TestBuildCountLoop(t *testing.T) {
	prog := workload.KernelCountLoop(10, 3)
	res, err := emu.Run(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(res.Profile)
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	body, ok := g.ByPC[2]
	if !ok {
		t.Fatal("no body node at pc 2")
	}
	if g.Nodes[body].Count != 10 {
		t.Errorf("body count = %v", g.Nodes[body].Count)
	}
	var self float64
	for _, e := range g.Succ[body] {
		if e.To == body {
			self = e.W
		}
	}
	if self != 9 {
		t.Errorf("backedge weight = %v, want 9", self)
	}
	if g.Coverage != 1.0 {
		t.Errorf("coverage = %v", g.Coverage)
	}
}

func TestPruneKeepsHotLoop(t *testing.T) {
	prog := workload.KernelCountLoop(100, 6)
	res, err := emu.Run(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(res.Profile)
	pg, err := g.Prune(0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Nodes) != 1 {
		t.Fatalf("pruned nodes = %d, want 1 (the loop body)", len(pg.Nodes))
	}
	if pg.Nodes[0].PC != 2 {
		t.Errorf("kept node pc = %d", pg.Nodes[0].PC)
	}
	if pg.Coverage < 0.9 {
		t.Errorf("coverage = %v", pg.Coverage)
	}
	// Self-loop must survive with weight 99.
	if len(pg.Succ[0]) != 1 || pg.Succ[0][0].To != 0 || pg.Succ[0][0].W != 99 {
		t.Errorf("succ = %+v", pg.Succ[0])
	}
}

// TestPruneSplicesDiamond checks the paper's edge-bypass rule: pruning
// the two arms of a diamond must create head→join edges carrying the
// combined flow.
func TestPruneSplicesDiamond(t *testing.T) {
	// Hand-built graph: head(0) -> a(1) 60 / b(2) 40; a,b -> join(3);
	// join -> head 99. Lengths chosen so a and b are coldest.
	g := &Graph{
		Nodes: []Node{
			{PC: 0, Len: 50, Count: 100},
			{PC: 10, Len: 1, Count: 60},
			{PC: 20, Len: 1, Count: 40},
			{PC: 30, Len: 50, Count: 100},
		},
		Succ: [][]Edge{
			{{To: 1, W: 60}, {To: 2, W: 40}},
			{{To: 3, W: 60}},
			{{To: 3, W: 40}},
			{{To: 0, W: 99}},
		},
		ByPC:     map[uint32]int{0: 0, 10: 1, 20: 2, 30: 3},
		Coverage: 1,
	}
	pg, err := g.Prune(0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Nodes) != 2 {
		t.Fatalf("kept %d nodes, want 2", len(pg.Nodes))
	}
	h, ok1 := pg.ByPC[0]
	j, ok2 := pg.ByPC[30]
	if !ok1 || !ok2 {
		t.Fatalf("head/join missing: %+v", pg.ByPC)
	}
	var w float64
	for _, e := range pg.Succ[h] {
		if e.To == j {
			w += e.W
		}
	}
	if math.Abs(w-100) > 1e-9 {
		t.Errorf("head->join spliced weight = %v, want 100", w)
	}
	var back float64
	for _, e := range pg.Succ[j] {
		if e.To == h {
			back += e.W
		}
	}
	if back != 99 {
		t.Errorf("join->head weight = %v, want 99", back)
	}
}

// TestPruneProportionalSplit checks the proportional weight split when a
// pruned node has multiple successors.
func TestPruneProportionalSplit(t *testing.T) {
	// p(0) -> v(1) 90; v -> s1(2) 30, s2(3) 60; p hot, v cold, s1/s2 hot.
	g := &Graph{
		Nodes: []Node{
			{PC: 0, Len: 100, Count: 90},
			{PC: 10, Len: 1, Count: 90},
			{PC: 20, Len: 100, Count: 30},
			{PC: 30, Len: 100, Count: 60},
		},
		Succ: [][]Edge{
			{{To: 1, W: 90}},
			{{To: 2, W: 30}, {To: 3, W: 60}},
			{},
			{},
		},
		ByPC:     map[uint32]int{0: 0, 10: 1, 20: 2, 30: 3},
		Coverage: 1,
	}
	pg, err := g.Prune(0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, s1, s2 := pg.ByPC[0], pg.ByPC[20], pg.ByPC[30]
	got := map[int]float64{}
	for _, e := range pg.Succ[p] {
		got[e.To] += e.W
	}
	if math.Abs(got[s1]-30) > 1e-9 || math.Abs(got[s2]-60) > 1e-9 {
		t.Errorf("split weights = %v, want 30/60", got)
	}
}

// TestPruneFlowConservation: on real profiles, pruning must not create
// flow from nothing — each retained node's out-weight stays bounded by
// its execution count (within float tolerance).
func TestPruneFlowConservation(t *testing.T) {
	for _, name := range []string{"compress", "ijpeg", "gcc"} {
		pr := profileOf(t, name)
		g := Build(pr)
		pg, err := g.Prune(0.9, 256)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pg.Coverage < 0.9 {
			t.Errorf("%s: coverage %v < 0.9", name, pg.Coverage)
		}
		for i := range pg.Nodes {
			out := pg.OutWeight(i)
			if out > pg.Nodes[i].Count*(1+1e-9)+1e-9 {
				t.Errorf("%s node %d (pc %d): out %v > count %v",
					name, i, pg.Nodes[i].PC, out, pg.Nodes[i].Count)
			}
		}
	}
}

func TestPruneMaxNodes(t *testing.T) {
	pr := profileOf(t, "gcc")
	g := Build(pr)
	pg, err := g.Prune(0.99, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Nodes) > 20 {
		t.Errorf("nodes = %d, want <= 20", len(pg.Nodes))
	}
}

func TestPruneRejectsBadCoverage(t *testing.T) {
	g := &Graph{Nodes: []Node{{PC: 0, Len: 1, Count: 1}}, Succ: [][]Edge{{}},
		ByPC: map[uint32]int{0: 0}}
	if _, err := g.Prune(0, 0); err == nil {
		t.Error("expected error for coverage 0")
	}
	if _, err := g.Prune(1.5, 0); err == nil {
		t.Error("expected error for coverage > 1")
	}
}

func TestTransitionRow(t *testing.T) {
	g := &Graph{
		Nodes: []Node{{PC: 0, Len: 1, Count: 10}, {PC: 1, Len: 1, Count: 6}, {PC: 2, Len: 1, Count: 4}},
		Succ: [][]Edge{
			{{To: 1, W: 6}, {To: 2, W: 4}},
			{},
			{},
		},
		ByPC: map[uint32]int{0: 0, 1: 1, 2: 2},
	}
	row := make([]float64, 3)
	g.Transition(0, row)
	if math.Abs(row[1]-0.6) > 1e-12 || math.Abs(row[2]-0.4) > 1e-12 {
		t.Errorf("row = %v", row)
	}
	g.Transition(1, row)
	for _, v := range row {
		if v != 0 {
			t.Errorf("terminal row = %v", row)
		}
	}
}

// TestPruneDeterministic prunes every benchmark's profile repeatedly,
// at the coverage and node cap the served pipeline uses, and requires
// bit-identical graphs: Prune's working adjacency is a set of maps,
// and a weight summed in their iteration order would move by ulps from
// run to run (and so from one cluster node's artifact to another's).
func TestPruneDeterministic(t *testing.T) {
	for _, name := range workload.Benchmarks {
		g := Build(profileOf(t, name))
		var first []byte
		for i := 0; i < 20; i++ {
			pg, err := g.Prune(0.90, 256)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Fatalf("%s: prune #%d differs from the first", name, i)
			}
		}
	}
}
