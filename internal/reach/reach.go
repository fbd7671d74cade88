// Package reach computes the paper's reaching-probability and expected-
// distance matrices over the pruned dynamic CFG (HPCA'02 §3.1).
//
// RP(i,j) is the probability that, after executing block i, block j is
// executed before i is executed again — the paper's constraint that the
// source and destination appear only as the first and last nodes of each
// control-flow sequence, with every other block free to repeat. D(i,j)
// is the expected number of instructions executed from the first
// instruction of i (inclusive) to the first instruction of j
// (exclusive), conditioned on reaching j.
//
// # Exact formulation
//
// The computation is exact over the graph's Markov chain. For each
// source i the chain with transitions into i removed (taboo) has
// fundamental matrix Nᵢ = (I−Qᵢ)⁻¹, and:
//
//	F(u,j) = Nᵢ(u,j)/Nᵢ(j,j)            first-passage u→j avoiding i
//	RP(i,j) = Σ_v P(i→v)·F(v,j)
//
// Conditional distances come from the same factorisation via a
// Sherman–Morrison reduction: with Mᵢ = Nᵢ·diag(len)·Nᵢ,
//
//	g_j = Mᵢ(:,j)/Nᵢ(j,j) − Nᵢ(:,j)·len(j) − Nᵢ(:,j)·β_j
//
// accumulates the expected block lengths of intermediate nodes on
// successful paths, and D(i,j) = len(i) + Σ_v P(i→v)g_j(v) / RP(i,j).
// First-return pairs (i == j, the loop-iteration shape) use the hitting
// vector h = Nᵢ·P(:,i) on the same factorisation.
//
// # Why there is no shared factorisation
//
// Deriving every taboo chain from one factorisation of the base chain
// A = I−P (a rank-2 Woodbury update per source, O(n³) per CFG instead
// of O(n⁴)) needs A to be invertible. The pruned profile graphs this
// package serves never give it that: pruning conserves flow, so I−P is
// singular (the last LU pivot is at round-off scale) on every served
// CFG, and such an engine would fall back to per-source factorisation
// on every request. The served CFGs are small (at most 81 nodes over
// the eight benchmarks at every size), so the per-source path is
// cheap; it is the only path, and Compute reuses one set of scratch
// matrices across sources.
package reach

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/linalg"
)

// Result holds the dense pairwise matrices over graph nodes.
type Result struct {
	G *cfg.Graph
	// Prob[i][j] is RP(i,j) in [0,1].
	Prob *linalg.Matrix
	// Dist[i][j] is D(i,j) in instructions (0 where Prob is 0).
	Dist *linalg.Matrix
}

// ApproxBytes reports the result's resident size for cache accounting.
func (r *Result) ApproxBytes() int64 {
	var b int64 = 64
	if r.Prob != nil {
		b += r.Prob.ApproxBytes()
	}
	if r.Dist != nil {
		b += r.Dist.ApproxBytes()
	}
	return b
}

// Compute evaluates the exact reaching-probability and distance
// matrices for every ordered node pair of g, factorising the taboo
// chain of each source in turn.
func Compute(g *cfg.Graph) (*Result, error) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("reach: empty graph")
	}
	P := buildChain(g)
	lens := make([]float64, n)
	for i := 0; i < n; i++ {
		lens[i] = float64(g.Nodes[i].Len)
	}
	res := &Result{G: g, Prob: linalg.NewMatrix(n, n), Dist: linalg.NewMatrix(n, n)}
	sc := newScratch(n)
	for i := 0; i < n; i++ {
		if err := sc.source(P, lens, i, res.Prob.Row(i), res.Dist.Row(i)); err != nil {
			return nil, fmt.Errorf("reach: source %d: %w", i, err)
		}
	}
	return res, nil
}

// buildChain derives the row-normalised transition matrix of the pruned
// graph. Rows are normalised by the node execution count, so flow that
// leaves the pruned graph (program exit or fully cold paths) appears as
// absorption.
func buildChain(g *cfg.Graph) *linalg.Matrix {
	n := len(g.Nodes)
	P := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cnt := g.Nodes[i].Count
		if cnt <= 0 {
			continue
		}
		row := P.Row(i)
		for _, e := range g.Succ[i] {
			row[e.To] += e.W / cnt
		}
		// Guard against round-off pushing a row above 1.
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum > 1 {
			for j := range row {
				row[j] /= sum
			}
		}
	}
	return P
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
