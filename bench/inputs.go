package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/emu"
	"repro/internal/workload"
)

// The value dimensions every seeded spec is drawn from. TablePolicies
// are the policies that build a spawn table.
var (
	tablePolicies = []string{"profile", "profile-indep", "profile-pred", "heuristics"}
	allPolicies   = append([]string{"none"}, tablePolicies...)
	predictors    = []string{"perfect", "stride", "context", "last-value"}
	tuCounts      = []int{1, 2, 4, 8, 16}
)

// conservation computes each benchmark's dynamic instruction count by
// generating and emulating it in-process: the reference every
// simulation's Committed must equal.
func conservation() (map[string]int64, error) {
	out := make(map[string]int64, len(workload.Benchmarks))
	for _, b := range workload.Benchmarks {
		prog, err := workload.Generate(b, workload.SizeTest)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", b, err)
		}
		res, err := emu.Run(prog, emu.Config{})
		if err != nil {
			return nil, fmt.Errorf("emulate %s: %w", b, err)
		}
		out[b] = int64(res.Instrs)
	}
	return out, nil
}

func pick[T any](r *rand.Rand, vals []T) T { return vals[r.Intn(len(vals))] }

// sweepGrid is sweep-cold's /v1/batch cross-product: every benchmark ×
// {none, one table policy} × two thread-unit counts × one predictor ×
// one overhead. Its thread-unit counts (3, 5, 6, 7, 10, 12) are ones no
// figure uses, so the grid is never-seen after the figure sweep.
type sweepGrid struct {
	Benches    []string `json:"benches"`
	Policies   []string `json:"policies"`
	TUs        []int    `json:"tus"`
	Predictors []string `json:"predictors"`
	Overheads  []int64  `json:"overheads"`
}

func newSweepGrid(seed int64) sweepGrid {
	r := rand.New(rand.NewSource(seed))
	tus := []int{3, 5, 6, 7, 10, 12}
	r.Shuffle(len(tus), func(i, j int) { tus[i], tus[j] = tus[j], tus[i] })
	return sweepGrid{
		Benches:    slices.Clone(workload.Benchmarks),
		Policies:   []string{"none", pick(r, tablePolicies)},
		TUs:        tus[:2],
		Predictors: []string{pick(r, predictors)},
		Overheads:  []int64{int64(r.Intn(32))},
	}
}

// specs expands the grid in the server's nested order (benches
// outermost), so line i of the response answers specs()[i].
func (g sweepGrid) specs() []Spec {
	var out []Spec
	for _, b := range g.Benches {
		for _, p := range g.Policies {
			for _, tu := range g.TUs {
				for _, pr := range g.Predictors {
					for _, ov := range g.Overheads {
						out = append(out, Spec{Bench: b, Policy: p, TUs: tu, Predictor: pr, Overhead: ov})
					}
				}
			}
		}
	}
	return out
}

// specSource draws distinct specs: no key is ever returned twice.
type specSource struct {
	r    *rand.Rand
	seen map[string]bool
}

func newSpecSource(seed int64) *specSource {
	return &specSource{r: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// draw returns a fresh spec for the given benchmark and policy, with
// thread units, predictor and overhead drawn from the seed.
func (s *specSource) draw(bench, policy string) Spec {
	tus, pred := pick(s.r, tuCounts), pick(s.r, predictors)
	for {
		sp := Spec{Bench: bench, Policy: policy, TUs: tus, Predictor: pred, Overhead: int64(s.r.Intn(64))}
		if !s.seen[sp.Key()] {
			s.seen[sp.Key()] = true
			return sp
		}
	}
}

// warmSet draws perBench specs per benchmark with seeded policies.
func (s *specSource) warmSet(perBench int) []Spec {
	var out []Spec
	for _, b := range workload.Benchmarks {
		for i := 0; i < perBench; i++ {
			out = append(out, s.draw(b, allPolicies[i%len(allPolicies)]))
		}
	}
	return out
}
