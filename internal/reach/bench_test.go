package reach

import (
	"fmt"
	"testing"

	"repro/internal/cfg"
)

// syntheticCFG builds a deterministic leaky random chain of n nodes —
// the benchmark's "medium CFG" shape (sparse successors, healthy
// absorption, like a pruned profile graph).
func syntheticCFG(n int, seed uint64) *cfg.Graph {
	s := seed
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	g := &cfg.Graph{ByPC: map[uint32]int{}, Coverage: 1}
	for i := 0; i < n; i++ {
		g.ByPC[uint32(i*10)] = i
		g.Nodes = append(g.Nodes, cfg.Node{PC: uint32(i * 10), Len: 1 + int(next()%30), Count: 1000})
	}
	g.Succ = make([][]cfg.Edge, n)
	for i := 0; i < n; i++ {
		deg := 2 + int(next()%3)
		total := 0.0
		var edges []cfg.Edge
		for d := 0; d < deg; d++ {
			w := float64(1 + next()%50)
			edges = append(edges, cfg.Edge{To: int(next() % uint64(n)), W: w})
			total += w
		}
		// Scale outflow to 70–95% of the node count: every row leaks.
		outflow := 0.70 + float64(next()%26)/100
		for e := range edges {
			edges[e].W *= 1000 * outflow / total
		}
		g.Succ[i] = edges
	}
	return g
}

// BenchmarkReach times Compute on increasing synthetic CFG sizes.
// scripts/bench_reach.sh records these numbers in BENCH_reach.json
// across PRs. The per-source path is O(n⁴), so the sweep stops at
// n=256, the pruning cap: at 512 a single iteration runs the better
// part of a minute and measures nothing the smaller sizes do not.
func BenchmarkReach(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		g := syntheticCFG(n, 42)
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
