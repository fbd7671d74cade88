// Package cfg builds the dynamic control-flow graph of a profiled run
// and applies the paper's pruning transformation (HPCA'02 §3.1): basic
// blocks are kept from hottest to coldest until 90% of the dynamically
// executed instructions are covered; every pruned node is bypassed by
// splicing predecessor→successor edges with the original weight split
// proportionally across the successors, so no control-flow reachability
// information is lost.
package cfg

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/emu"
)

// Node is one basic block of the dynamic CFG.
type Node struct {
	PC    uint32  // leader PC
	Len   int     // static instruction count of the block
	Count float64 // dynamic execution count (fractional after splicing)
}

// Instrs returns the dynamic instructions attributed to the node.
func (n *Node) Instrs() float64 { return n.Count * float64(n.Len) }

// Edge is a weighted successor reference.
type Edge struct {
	To int     // node index
	W  float64 // dynamic traversal weight
}

// Graph is a weighted dynamic CFG. Node 0..len(Nodes)-1 index the Succ
// adjacency lists.
type Graph struct {
	Nodes []Node
	Succ  [][]Edge
	// ByPC maps a leader PC to its node index.
	ByPC map[uint32]int
	// Coverage is the fraction of dynamic instructions covered by the
	// retained nodes (1.0 for an unpruned graph).
	Coverage float64
}

// Build constructs the full dynamic CFG from a profile, one node per
// executed basic block.
func Build(pr *emu.Profile) *Graph {
	var leaders []uint32
	for _, l := range pr.Leaders {
		if pr.BlockCount[l] > 0 {
			leaders = append(leaders, l)
		}
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })

	g := &Graph{ByPC: make(map[uint32]int, len(leaders))}
	for _, l := range leaders {
		g.ByPC[l] = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{PC: l, Len: pr.BlockLen[l], Count: float64(pr.BlockCount[l])})
	}
	g.Succ = make([][]Edge, len(g.Nodes))
	for e, c := range pr.EdgeCount {
		from, okF := g.ByPC[e.From]
		to, okT := g.ByPC[e.To]
		if !okF || !okT || c == 0 {
			continue
		}
		g.Succ[from] = append(g.Succ[from], Edge{To: to, W: float64(c)})
	}
	for i := range g.Succ {
		sort.Slice(g.Succ[i], func(a, b int) bool { return g.Succ[i][a].To < g.Succ[i][b].To })
	}
	g.Coverage = 1.0
	return g
}

// ApproxBytes reports the graph's approximate resident size for engine
// cache accounting (24B per node, 16B per edge, ~32B per ByPC entry).
func (g *Graph) ApproxBytes() int64 {
	edges := 0
	for _, s := range g.Succ {
		edges += len(s)
	}
	return int64(len(g.Nodes))*24 + int64(edges)*16 + int64(len(g.ByPC))*32 + 96
}

// TotalInstrs returns the dynamic instructions attributed to retained
// nodes.
func (g *Graph) TotalInstrs() float64 {
	total := 0.0
	for i := range g.Nodes {
		total += g.Nodes[i].Instrs()
	}
	return total
}

// OutWeight returns the total outgoing edge weight of node i.
func (g *Graph) OutWeight(i int) float64 {
	w := 0.0
	for _, e := range g.Succ[i] {
		w += e.W
	}
	return w
}

// Prune returns a new graph containing the hottest nodes covering at
// least the given fraction of dynamic instructions (and at most maxNodes
// nodes; 0 means unlimited). Pruned nodes are bypassed per the paper:
// each predecessor edge is redistributed across the pruned node's
// successors proportionally to the successor weights.
func (g *Graph) Prune(coverage float64, maxNodes int) (*Graph, error) {
	if coverage <= 0 || coverage > 1 {
		return nil, fmt.Errorf("cfg: coverage %v out of (0,1]", coverage)
	}
	n := len(g.Nodes)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := g.Nodes[order[a]].Instrs(), g.Nodes[order[b]].Instrs()
		if ia != ib {
			return ia > ib
		}
		return g.Nodes[order[a]].PC < g.Nodes[order[b]].PC
	})

	total := g.TotalInstrs()
	keep := make([]bool, n)
	covered := 0.0
	kept := 0
	for _, idx := range order {
		if covered/total >= coverage && kept > 0 {
			break
		}
		if maxNodes > 0 && kept >= maxNodes {
			break
		}
		keep[idx] = true
		covered += g.Nodes[idx].Instrs()
		kept++
	}

	// Working adjacency: succ and pred weight maps.
	succ := make([]map[int]float64, n)
	pred := make([]map[int]float64, n)
	for i := range succ {
		succ[i] = make(map[int]float64)
		pred[i] = make(map[int]float64)
	}
	for i, edges := range g.Succ {
		for _, e := range edges {
			succ[i][e.To] += e.W
			pred[e.To][i] += e.W
		}
	}

	// Remove pruned nodes coldest-first, splicing around each.
	var outs []int
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if keep[v] {
			continue
		}
		outs = spliceOut(succ, pred, v, outs[:0])
	}

	// Freeze the kept subgraph.
	out := &Graph{ByPC: make(map[uint32]int, kept), Coverage: covered / total}
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	for _, idx := range order {
		if !keep[idx] {
			continue
		}
		remap[idx] = len(out.Nodes)
		out.ByPC[g.Nodes[idx].PC] = len(out.Nodes)
		out.Nodes = append(out.Nodes, g.Nodes[idx])
	}
	// Restore PC ordering for determinism.
	sort.Slice(out.Nodes, func(a, b int) bool { return out.Nodes[a].PC < out.Nodes[b].PC })
	for i := range out.Nodes {
		out.ByPC[out.Nodes[i].PC] = i
	}
	for i := range remap {
		if keep[i] {
			remap[i] = out.ByPC[g.Nodes[i].PC]
		}
	}
	out.Succ = make([][]Edge, len(out.Nodes))
	for v := 0; v < n; v++ {
		if !keep[v] {
			continue
		}
		nv := remap[v]
		for to, w := range succ[v] {
			if !keep[to] || w <= 0 {
				continue
			}
			out.Succ[nv] = append(out.Succ[nv], Edge{To: remap[to], W: w})
		}
		sort.Slice(out.Succ[nv], func(a, b int) bool { return out.Succ[nv][a].To < out.Succ[nv][b].To })
	}
	return out, nil
}

// spliceOut removes node v, redistributing every predecessor edge across
// v's successors proportionally to the successor weights. Self-loops on
// v fold into the redistribution (their weight simply drops out of the
// denominator, preserving entry→exit flow). The successor weights are
// summed in ascending node order: float addition is not associative, so
// summing in map-iteration order would give a pruned graph whose edge
// weights differ by ulps from one process (or cluster node) to the next.
// outs is scratch space for the sorted successor list, returned for
// reuse.
func spliceOut(succ, pred []map[int]float64, v int, outs []int) []int {
	for to := range succ[v] {
		if to != v {
			outs = append(outs, to)
		}
	}
	slices.Sort(outs)
	outTotal := 0.0
	for _, to := range outs {
		outTotal += succ[v][to]
	}
	for p, wpv := range pred[v] {
		if p == v {
			continue
		}
		delete(succ[p], v)
		if outTotal > 0 {
			for s, wvs := range succ[v] {
				if s == v {
					continue
				}
				add := wpv * wvs / outTotal
				succ[p][s] += add
				pred[s][p] += add
			}
		}
	}
	for s := range succ[v] {
		delete(pred[s], v)
	}
	for p := range pred[v] {
		delete(succ[p], v)
	}
	succ[v] = map[int]float64{}
	pred[v] = map[int]float64{}
	return outs
}

// Transition returns the row-stochastic (or substochastic, for nodes
// with dangling flow) transition probabilities of node i as a dense row
// over all nodes.
func (g *Graph) Transition(i int, row []float64) {
	for j := range row {
		row[j] = 0
	}
	out := g.OutWeight(i)
	if out <= 0 {
		return
	}
	for _, e := range g.Succ[i] {
		row[e.To] += e.W / out
	}
}
