package reach

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cfg"
	"repro/internal/emu"
	"repro/internal/linalg"
	"repro/internal/workload"
)

// twoNodeLoop: A self-loops with probability p and exits to B otherwise.
func twoNodeLoop(p float64) *cfg.Graph {
	const count = 1000
	return &cfg.Graph{
		Nodes: []cfg.Node{
			{PC: 0, Len: 10, Count: count},
			{PC: 10, Len: 5, Count: count * (1 - p)},
		},
		Succ: [][]cfg.Edge{
			{{To: 0, W: count * p}, {To: 1, W: count * (1 - p)}},
			{},
		},
		ByPC:     map[uint32]int{0: 0, 10: 1},
		Coverage: 1,
	}
}

func TestComputeTwoNodeLoop(t *testing.T) {
	p := 0.8
	res, err := Compute(twoNodeLoop(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Prob.At(0, 0); math.Abs(got-p) > 1e-9 {
		t.Errorf("RP(A,A) = %v, want %v", got, p)
	}
	if got := res.Dist.At(0, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("D(A,A) = %v, want 10 (direct self-loop)", got)
	}
	if got := res.Prob.At(0, 1); math.Abs(got-(1-p)) > 1e-9 {
		t.Errorf("RP(A,B) = %v, want %v", got, 1-p)
	}
	if got := res.Dist.At(0, 1); math.Abs(got-10) > 1e-9 {
		t.Errorf("D(A,B) = %v, want 10", got)
	}
	if got := res.Prob.At(1, 0); got != 0 {
		t.Errorf("RP(B,A) = %v, want 0 (terminal)", got)
	}
}

// threeNode: A→B (1−q), A→C (q); B→A always; C terminal.
func threeNode(q float64) *cfg.Graph {
	const count = 1000
	return &cfg.Graph{
		Nodes: []cfg.Node{
			{PC: 0, Len: 4, Count: count},
			{PC: 10, Len: 7, Count: count * (1 - q)},
			{PC: 20, Len: 3, Count: count * q},
		},
		Succ: [][]cfg.Edge{
			{{To: 1, W: count * (1 - q)}, {To: 2, W: count * q}},
			{{To: 0, W: count * (1 - q)}},
			{},
		},
		ByPC:     map[uint32]int{0: 0, 10: 1, 20: 2},
		Coverage: 1,
	}
}

func TestComputeThreeNodeTaboo(t *testing.T) {
	q := 0.25
	res, err := Compute(threeNode(q))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		i, j int
		rp   float64
		dist float64
	}{
		{0, 0, 1 - q, 4 + 7}, // A→B→A
		{0, 1, 1 - q, 4},     // direct
		{0, 2, q, 4},         // direct only: the B path returns to A first
		{1, 0, 1, 7},         // B→A always
		{1, 2, q, 7 + 4},     // B→A→C; revisiting B is failure
		{2, 0, 0, 0},         // terminal
	}
	for _, c := range cases {
		if got := res.Prob.At(c.i, c.j); math.Abs(got-c.rp) > 1e-9 {
			t.Errorf("RP(%d,%d) = %v, want %v", c.i, c.j, got, c.rp)
		}
		if got := res.Dist.At(c.i, c.j); math.Abs(got-c.dist) > 1e-9 {
			t.Errorf("D(%d,%d) = %v, want %v", c.i, c.j, got, c.dist)
		}
	}
	// RP(1,0) is certain even though B revisits are allowed: check an
	// intermediate-repeat case. RP(2,*) all zero.
	for j := 0; j < 3; j++ {
		if got := res.Prob.At(2, j); got != 0 {
			t.Errorf("RP(2,%d) = %v, want 0", j, got)
		}
	}
}

// closedThreeNode is threeNode with C→A instead of C terminal: A→B
// (1−q), A→C (q), B→A and C→A always. Every row sums to one, so the
// chain has no leak and I−P is singular — the shape of every served
// CFG, since pruning conserves flow.
func closedThreeNode(q float64) *cfg.Graph {
	g := threeNode(q)
	g.Succ[2] = []cfg.Edge{{To: 0, W: g.Nodes[2].Count}}
	return g
}

// TestComputeClosedChain checks hand-derived values on a chain whose
// base matrix I−P cannot be factorised. With lengths A=4, B=7, C=3 and
// q = 1/4:
//
//   - From A, both successors lead straight back to A, so RP(A,A) = 1 and
//     D(A,A) = 4 + (1−q)·7 + q·3 = 10. A→B and A→C are direct hits
//     (RP 1−q and q, D 4): the other branch returns to A first.
//   - From B the path is B→A, then A→B ends it (1−q) or A→C→A loops
//     (q). A is visited 1/(1−q) times and C q/(1−q) times, so
//     RP(B,B) = 1 and D(B,B) = 7 + 4/(1−q) + 3q/(1−q) = 40/3. B→C
//     succeeds only as B→A→C: RP q, D 7+4 = 11.
//   - Symmetrically from C: A is visited 1/q times and B (1−q)/q times,
//     so RP(C,C) = 1 and D(C,C) = 3 + 4/q + 7(1−q)/q = 40. C→B succeeds
//     only as C→A→B: RP 1−q, D 3+4 = 7.
//   - B→A and C→A are certain direct hits: D 7 and 3.
func TestComputeClosedChain(t *testing.T) {
	q := 0.25
	g := closedThreeNode(q)
	P := buildChain(g)
	IminusP := linalg.Identity(3)
	for i := range IminusP.Data {
		IminusP.Data[i] -= P.Data[i]
	}
	if _, err := linalg.Factor(IminusP); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("factorising I−P: err = %v, want ErrSingular", err)
	}
	res, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	want := [3][3]struct{ rp, dist float64 }{
		{{1, 10}, {1 - q, 4}, {q, 4}},
		{{1, 7}, {1, 40.0 / 3}, {q, 11}},
		{{1, 3}, {1 - q, 7}, {1, 40}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			w := want[i][j]
			if got := res.Prob.At(i, j); math.Abs(got-w.rp) > 1e-9 {
				t.Errorf("RP(%d,%d) = %v, want %v", i, j, got, w.rp)
			}
			if got := res.Dist.At(i, j); math.Abs(got-w.dist) > 1e-9 {
				t.Errorf("D(%d,%d) = %v, want %v", i, j, got, w.dist)
			}
		}
	}
}

// TestComputeIntermediateRepeats: i→a→a→…→j — intermediate nodes may
// repeat without ending the sequence (the paper's only constraint is on
// the endpoints).
func TestComputeIntermediateRepeats(t *testing.T) {
	// i(0)→a(1); a self-loops with prob s, else →j(2); j terminal.
	s := 0.6
	const count = 1000
	g := &cfg.Graph{
		Nodes: []cfg.Node{
			{PC: 0, Len: 2, Count: count},
			{PC: 10, Len: 3, Count: count / (1 - s)},
			{PC: 20, Len: 5, Count: count},
		},
		Succ: [][]cfg.Edge{
			{{To: 1, W: count}},
			{{To: 1, W: count * s / (1 - s)}, {To: 2, W: count}},
			{},
		},
		ByPC:     map[uint32]int{0: 0, 10: 1, 20: 2},
		Coverage: 1,
	}
	res, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Prob.At(0, 2); math.Abs(got-1) > 1e-9 {
		t.Errorf("RP(i,j) = %v, want 1", got)
	}
	// Expected visits of a: 1/(1-s) = 2.5, each of length 3.
	want := 2.0 + 3.0/(1-s)
	if got := res.Dist.At(0, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("D(i,j) = %v, want %v", got, want)
	}
}

func TestComputeEmptyGraph(t *testing.T) {
	if _, err := Compute(&cfg.Graph{}); err == nil {
		t.Fatal("expected error on empty graph")
	}
}

// TestMatrixMatchesEmpiricalOnMarkovWalk: generate a random irreducible
// chain, sample a long walk from it, and require the matrix engine to
// agree with direct measurement within sampling error.
func TestMatrixMatchesEmpiricalOnMarkovWalk(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	for _, seed := range seeds {
		g, walk := randomChainAndWalk(seed, 6, 120000)
		mat, err := Compute(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		emp := Empirical(g, walk)
		n := len(g.Nodes)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mp, ep := mat.Prob.At(i, j), emp.Prob.At(i, j)
				if math.Abs(mp-ep) > 0.04 {
					t.Errorf("seed %d RP(%d,%d): matrix %v vs empirical %v", seed, i, j, mp, ep)
				}
				if mp > 0.2 && ep > 0 {
					md, ed := mat.Dist.At(i, j), emp.Dist.At(i, j)
					if rel := math.Abs(md-ed) / math.Max(ed, 1); rel > 0.08 {
						t.Errorf("seed %d D(%d,%d): matrix %v vs empirical %v", seed, i, j, md, ed)
					}
				}
			}
		}
	}
}

// randomChainAndWalk builds a dense random chain over n nodes and
// samples a walk of the given length.
func randomChainAndWalk(seed uint64, n, steps int) (*cfg.Graph, []Visit) {
	s := seed
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, n)
		total := 0.0
		for j := range probs[i] {
			v := float64(next()%1000) + 1
			probs[i][j] = v
			total += v
		}
		for j := range probs[i] {
			probs[i][j] /= total
		}
	}
	lens := make([]int, n)
	for i := range lens {
		lens[i] = 1 + int(next()%20)
	}

	// Sample the walk.
	visits := make([]Visit, 0, steps)
	cur := 0
	cum := 0.0
	counts := make([]float64, n)
	weights := make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, n)
	}
	for k := 0; k < steps; k++ {
		visits = append(visits, Visit{Node: cur, Cum: cum})
		counts[cur]++
		cum += float64(lens[cur])
		r := float64(next()%1e9) / 1e9
		nxt := n - 1
		for j := 0; j < n; j++ {
			if r < probs[cur][j] {
				nxt = j
				break
			}
			r -= probs[cur][j]
		}
		if k+1 < steps {
			weights[cur][nxt]++
		}
		cur = nxt
	}

	// Build the graph from the *observed* walk so the chain the matrix
	// sees is exactly the empirical transition structure.
	g := &cfg.Graph{ByPC: map[uint32]int{}, Coverage: 1}
	for i := 0; i < n; i++ {
		g.ByPC[uint32(i*10)] = i
		g.Nodes = append(g.Nodes, cfg.Node{PC: uint32(i * 10), Len: lens[i], Count: counts[i]})
	}
	g.Succ = make([][]cfg.Edge, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if weights[i][j] > 0 {
				g.Succ[i] = append(g.Succ[i], cfg.Edge{To: j, W: weights[i][j]})
			}
		}
	}
	return g, visits
}

// TestPipelineCountLoop runs the real pipeline over the counted-loop
// kernel and checks the loop-iteration pair's probability and distance.
func TestPipelineCountLoop(t *testing.T) {
	trips, pad := 200, 6
	prog := workload.KernelCountLoop(trips, pad)
	runRes, err := emu.Run(prog, emu.Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(runRes.Profile).Prune(0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := g.ByPC[2]
	if !ok {
		t.Fatalf("body node missing; nodes %+v", g.Nodes)
	}
	wantRP := float64(trips-1) / float64(trips)
	if got := res.Prob.At(body, body); math.Abs(got-wantRP) > 1e-9 {
		t.Errorf("RP(body,body) = %v, want %v", got, wantRP)
	}
	bodyLen := float64(g.Nodes[body].Len)
	if got := res.Dist.At(body, body); math.Abs(got-bodyLen) > 1e-9 {
		t.Errorf("D(body,body) = %v, want %v", got, bodyLen)
	}

	// Cross-check with the empirical estimator on the same trace.
	emp := Empirical(g, VisitsFromTrace(runRes.Trace, g))
	if got := emp.Prob.At(body, body); math.Abs(got-wantRP) > 1e-9 {
		t.Errorf("empirical RP = %v, want %v", got, wantRP)
	}
	if got := emp.Dist.At(body, body); math.Abs(got-bodyLen) > 1e-9 {
		t.Errorf("empirical D = %v, want %v", got, bodyLen)
	}
}

// TestPipelineBenchmarksAgree compares matrix vs empirical estimates on
// real generated benchmarks. Real traces are not Markovian, so this is a
// loose agreement check on confident pairs only — it guards against
// gross engine errors, not sampling noise.
func TestPipelineBenchmarksAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline comparison is slow")
	}
	for _, name := range []string{"compress", "ijpeg"} {
		prog := workload.MustGenerate(name, workload.SizeTest)
		runRes, err := emu.Run(prog, emu.Config{CollectTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(runRes.Profile).Prune(0.9, 128)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		emp := Empirical(g, VisitsFromTrace(runRes.Trace, g))
		n := len(g.Nodes)
		disagree, confident := 0, 0
		for i := 0; i < n; i++ {
			if g.Nodes[i].Count < 50 {
				continue
			}
			for j := 0; j < n; j++ {
				mp, ep := mat.Prob.At(i, j), emp.Prob.At(i, j)
				if mp > 0.95 || ep > 0.95 {
					confident++
					if math.Abs(mp-ep) > 0.25 {
						disagree++
					}
				}
			}
		}
		if confident == 0 {
			t.Errorf("%s: no confident pairs found", name)
		}
		if float64(disagree) > 0.15*float64(confident) {
			t.Errorf("%s: %d/%d confident pairs disagree by > 0.25", name, disagree, confident)
		}
	}
}

func benchGraph(t *testing.T, name string) *cfg.Graph {
	t.Helper()
	prog := workload.MustGenerate(name, workload.SizeTest)
	runRes, err := emu.Run(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(runRes.Profile).Prune(0.9, 256)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParallelRepeatedRuns runs Compute concurrently on one graph, as
// the engine's workers do across CFGs: each call owns its scratch, so
// every run must match a lone run bit for bit (and be race-free under
// -race).
func TestParallelRepeatedRuns(t *testing.T) {
	g, _ := randomChainAndWalk(7, 10, 20000)
	want, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for k := 0; k < 8; k++ {
		go func() {
			for r := 0; r < 5; r++ {
				res, err := Compute(g)
				if err != nil {
					done <- err
					return
				}
				for i := range want.Prob.Data {
					if res.Prob.Data[i] != want.Prob.Data[i] || res.Dist.Data[i] != want.Dist.Data[i] {
						done <- errors.New("concurrent run diverged from a lone run")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for k := 0; k < 8; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestComputeAllocsPerRun pins the per-source path's scratch reuse: a
// Compute allocates its result, the chain and one set of scratch
// matrices and vectors, then runs every source through them. What
// remains per source is the error value of a singular first
// factorisation, which the damping retry discards (most sources of a
// served CFG take that retry: ~3 objects each). Allocating matrices
// per source again would cost ~20 objects a source and break the
// bound on both the smallest (compress, 12 nodes) and the largest
// (gcc, 81 nodes) test-size CFG.
func TestComputeAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled GEMM packing buffer at random under the race detector")
	}
	for _, name := range []string{"compress", "gcc"} {
		g := benchGraph(t, name)
		compute := func() {
			if _, err := Compute(g); err != nil {
				t.Fatal(err)
			}
		}
		compute() // fill the GEMM packing-buffer pool
		n := len(g.Nodes)
		if got, max := testing.AllocsPerRun(5, compute), 40+3*n; got > float64(max) {
			t.Errorf("%s (n=%d): Compute allocates %.0f objects, want <= %d", name, n, got, max)
		}
	}
}
