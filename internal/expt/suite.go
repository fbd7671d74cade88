// Package expt reproduces the paper's evaluation: one runner per figure
// (Figures 2–12). All pipeline artefacts — program → trace → profile →
// pruned CFG → reach matrices → spawn tables → simulation results — are
// produced as keyed jobs on a shared engine.Engine, so suites built over
// the same engine deduplicate work across benchmarks, figures, and
// concurrent server requests, and a multi-worker run is bit-identical
// to a serial one.
package expt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/heuristic"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/reach"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Coverage and node cap for the pruned dynamic CFG (paper: 90%).
const (
	pruneCoverage = 0.90
	pruneMaxNodes = 256
)

// spawnWindowFactor is the expected-distance misspeculation window
// applied to profile-table pairs (see cluster.Config.SpawnWindowFactor
// and DESIGN.md §3.2). Construct pairs always use construct-level
// detection.
const spawnWindowFactor = 4

// pipeHash fingerprints the fixed pipeline configuration so artifact
// keys change if these constants do (content-keyed caching).
var pipeHash = engine.KeyHash("coverage", pruneCoverage, "maxnodes", pruneMaxNodes, "window", spawnWindowFactor)

// BenchKey returns the engine artifact key of the composite bench job
// for one benchmark — the routing key a shard cluster hashes to place
// /v1/analyze- and /v1/pairs-style work. It is computable without
// building any artifact.
func BenchKey(name string, size workload.SizeClass) string {
	return "bench/" + name + "/" + size.String() + "/" + pipeHash
}

// profileTableKey is the artifact key of a profile-based spawn table.
func profileTableKey(name string, size workload.SizeClass, crit core.Criterion) string {
	return fmt.Sprintf("table/%s/%s/%s/%v", name, size, pipeHash, crit)
}

// heuristicTableKey is the artifact key of the combined-heuristics
// spawn table.
func heuristicTableKey(name string, size workload.SizeClass) string {
	return fmt.Sprintf("heur/%s/%s/%s", name, size, pipeHash)
}

// TableKey returns the artifact key of the spawn table the policy
// selects for one benchmark (the /v1/pairs routing key). Policy "none"
// builds no table and returns ""; an unknown policy errors.
func TableKey(name string, size workload.SizeClass, policy string) (string, error) {
	switch policy {
	case "none":
		return "", nil
	case "profile":
		return profileTableKey(name, size, core.MaxDistance), nil
	case "profile-indep":
		return profileTableKey(name, size, core.MaxIndependent), nil
	case "profile-pred":
		return profileTableKey(name, size, core.MaxPredictable), nil
	case "heuristics":
		return heuristicTableKey(name, size), nil
	default:
		return "", fmt.Errorf("expt: unknown policy %q", policy)
	}
}

// SimKey returns the artifact key of one simulation (sp.Bench must be
// set) — the per-spec routing key for /v1/simulate and /v1/batch.
func SimKey(size workload.SizeClass, sp SimSpec) string {
	return fmt.Sprintf("sim/%s/%s/%s", size, pipeHash, sp.key())
}

// Bench caches every pipeline artefact for one benchmark. Spawn tables
// and simulation results are memoized on the suite's engine, so a
// Bench is safe to share across goroutines.
type Bench struct {
	Name    string
	Trace   *trace.Trace
	Profile *emu.Profile
	Graph   *cfg.Graph
	Reach   *reach.Result

	size workload.SizeClass
	eng  *engine.Engine
}

// ApproxBytes reports the artifacts a resident Bench pins for engine
// cache accounting. The same artifacts are charged to their own
// pipeline-stage cache entries too: the cache deliberately over- rather
// than under-counts shared references, because a resident Bench keeps
// them alive no matter what happens to the stage entries.
func (b *Bench) ApproxBytes() int64 {
	var n int64 = 128
	if b.Trace != nil {
		n += b.Trace.ApproxBytes()
	}
	if b.Profile != nil {
		n += b.Profile.ApproxBytes()
	}
	if b.Graph != nil {
		n += b.Graph.ApproxBytes()
	}
	if b.Reach != nil {
		n += b.Reach.ApproxBytes()
	}
	return n
}

// Suite is the whole evaluation context. A Suite is a view over its
// engine's artifact cache: two suites sharing an engine share every
// artefact, and constructing a second suite over warm artifacts is
// nearly free.
type Suite struct {
	Size    workload.SizeClass
	Benches []*Bench

	eng *engine.Engine
	// ctx is the context every engine submission runs under. A suite is
	// a request-lifetime view (the server builds one per request), so
	// carrying the request's context here is what lets cancellation and
	// trace identity reach the engine's spans.
	ctx context.Context
}

// NewSuite builds the pipeline for the given benchmarks (nil = the full
// SpecInt95-like suite) at the given size, serially on a private
// single-worker engine — the deterministic baseline the parallel path
// is tested against.
func NewSuite(size workload.SizeClass, names []string) (*Suite, error) {
	return NewSuiteEngine(engine.New(engine.Options{Workers: 1}), size, names)
}

// NewSuiteEngine builds the pipeline on the given engine, constructing
// the per-benchmark artefact chains concurrently up to the engine's
// worker bound. A nil engine selects a GOMAXPROCS-sized one.
func NewSuiteEngine(eng *engine.Engine, size workload.SizeClass, names []string) (*Suite, error) {
	return NewSuiteEngineCtx(context.Background(), eng, size, names)
}

// NewSuiteEngineCtx is NewSuiteEngine under a caller context: every
// engine submission the suite makes — construction here and later
// Table/Sim/figure work — runs under ctx, so cancelling it abandons
// the work and any trace it carries extends into the engine.
func NewSuiteEngineCtx(ctx context.Context, eng *engine.Engine, size workload.SizeClass, names []string) (*Suite, error) {
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	if names == nil {
		names = workload.Benchmarks
	}
	s := &Suite{Size: size, eng: eng, ctx: ctx}
	benches := make([]*Bench, len(names))
	errs := make([]error, len(names))
	eng.Sched().For("bench", len(names), func(i int) {
		v, err := eng.Exec(ctx, s.benchJob(names[i]))
		if err != nil {
			errs[i] = fmt.Errorf("expt: %s: %w", names[i], err)
		} else {
			benches[i] = v.(*Bench)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.Benches = benches
	return s, nil
}

// Engine returns the engine the suite's artefacts live on.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// benchJob builds the four-stage artefact chain for one benchmark:
// generate → emulate (trace+profile) → prune CFG → reach matrices.
// Every stage is a pure function of its inputs, keyed by benchmark,
// size class, and pipeline-config hash.
func (s *Suite) benchJob(name string) engine.Job {
	stem := name + "/" + s.Size.String()
	progJob := engine.Job{
		Key: "program/" + stem,
		Run: func(ctx context.Context, deps []any) (any, error) {
			return workload.Generate(name, s.Size)
		},
	}
	emuJob := engine.Job{
		Key:  "emu/" + stem,
		Deps: []engine.Job{progJob},
		Run: func(ctx context.Context, deps []any) (any, error) {
			res, err := emu.Run(deps[0].(*isa.Program), emu.Config{CollectTrace: true})
			if err != nil {
				return nil, err
			}
			// Index before publishing: every later consumer reads the
			// index concurrently.
			res.Trace.BuildIndex()
			return res, nil
		},
	}
	cfgJob := engine.Job{
		Key:  "cfg/" + stem + "/" + pipeHash,
		Deps: []engine.Job{emuJob},
		Run: func(ctx context.Context, deps []any) (any, error) {
			return cfg.Build(deps[0].(*emu.Result).Profile).Prune(pruneCoverage, pruneMaxNodes)
		},
	}
	reachJob := engine.Job{
		Key:  "reach/" + stem + "/" + pipeHash,
		Deps: []engine.Job{cfgJob},
		Run: func(ctx context.Context, deps []any) (any, error) {
			return reach.Compute(deps[0].(*cfg.Graph))
		},
	}
	return engine.Job{
		Key:  BenchKey(name, s.Size),
		Deps: []engine.Job{emuJob, cfgJob, reachJob},
		Run: func(ctx context.Context, deps []any) (any, error) {
			res := deps[0].(*emu.Result)
			return &Bench{
				Name:    name,
				Trace:   res.Trace,
				Profile: res.Profile,
				Graph:   deps[1].(*cfg.Graph),
				Reach:   deps[2].(*reach.Result),
				size:    s.Size,
				eng:     s.eng,
			}, nil
		},
	}
}

// profileTableJob is the keyed engine job building b's profile-based
// spawn table under the given ordering criterion.
func (b *Bench) profileTableJob(crit core.Criterion) engine.Job {
	return engine.Job{
		Key: profileTableKey(b.Name, b.size, crit),
		Run: func(ctx context.Context, deps []any) (any, error) {
			return core.Select(b.Profile, b.Graph, b.Reach, b.Trace, core.Config{Criterion: crit})
		},
	}
}

// heuristicTableJob is the keyed engine job building b's combined
// traditional-heuristics table.
func (b *Bench) heuristicTableJob() engine.Job {
	return engine.Job{
		Key: heuristicTableKey(b.Name, b.size),
		Run: func(ctx context.Context, deps []any) (any, error) {
			return heuristic.Pairs(b.Trace.Program, b.Profile, b.Trace, heuristic.Combined, heuristic.Config{}), nil
		},
	}
}

// tableJob resolves a policy name to the job producing its spawn table.
// For "none" the job yields a nil table (simulate single-threaded).
func (b *Bench) tableJob(policy string) (engine.Job, error) {
	switch policy {
	case "none":
		return engine.Job{
			Run: func(ctx context.Context, deps []any) (any, error) { return (*core.Table)(nil), nil },
		}, nil
	case "profile":
		return b.profileTableJob(core.MaxDistance), nil
	case "profile-indep":
		return b.profileTableJob(core.MaxIndependent), nil
	case "profile-pred":
		return b.profileTableJob(core.MaxPredictable), nil
	case "heuristics":
		return b.heuristicTableJob(), nil
	default:
		return engine.Job{}, fmt.Errorf("expt: unknown policy %q", policy)
	}
}

// ProfileTable returns (building through the engine on first use) the
// profile-based spawn table under the given ordering criterion.
func (b *Bench) ProfileTable(crit core.Criterion) (*core.Table, error) {
	v, err := b.eng.Exec(context.Background(), b.profileTableJob(crit))
	if err != nil {
		return nil, err
	}
	return v.(*core.Table), nil
}

// HeuristicTable returns (building through the engine on first use) the
// combined traditional-heuristics table.
func (b *Bench) HeuristicTable() *core.Table {
	v, err := b.eng.Exec(context.Background(), b.heuristicTableJob())
	if err != nil {
		// Background context and an error-free builder: unreachable.
		panic(err)
	}
	return v.(*core.Table)
}

// SimSpec names a simulation configuration for caching.
type SimSpec struct {
	Bench     string
	Policy    string // "none", "profile", "heuristics", "profile-indep", "profile-pred"
	TUs       int
	Predictor cluster.PredictorKind
	Overhead  int64
	Removal   int64
	Occur     int
	Reassign  bool
	MinSize   int
}

func (sp SimSpec) key() string {
	return fmt.Sprintf("%s/%s/tu%d/p%d/ov%d/rm%d/oc%d/ra%v/ms%d",
		sp.Bench, sp.Policy, sp.TUs, sp.Predictor, sp.Overhead, sp.Removal, sp.Occur, sp.Reassign, sp.MinSize)
}

// Table resolves a policy name to its spawn table (nil for "none").
// This is the single policy-name vocabulary; Policies lists the
// accepted names.
func (s *Suite) Table(b *Bench, policy string) (*core.Table, error) {
	j, err := b.tableJob(policy)
	if err != nil {
		return nil, err
	}
	v, err := s.eng.Exec(s.ctx, j)
	if err != nil {
		return nil, err
	}
	return v.(*core.Table), nil
}

// Policies lists the spawn-policy names Sim accepts.
func Policies() []string {
	return []string{"none", "profile", "heuristics", "profile-indep", "profile-pred"}
}

// simJob builds the keyed engine job for one simulation, declaring the
// spawn table as a dependency so batches of sims form a proper
// dependency layer: the engine resolves (or dedups) every table and
// simulation concurrently up to its worker bound.
func (s *Suite) simJob(b *Bench, sp SimSpec) (engine.Job, error) {
	sp.Bench = b.Name
	tj, err := b.tableJob(sp.Policy)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Job{
		Key:  SimKey(s.Size, sp),
		Deps: []engine.Job{tj},
		Run: func(ctx context.Context, deps []any) (any, error) {
			return cluster.Simulate(b.Trace, cluster.Config{
				TUs:                sp.TUs,
				Pairs:              deps[0].(*core.Table),
				Predictor:          sp.Predictor,
				SpawnOverhead:      sp.Overhead,
				RemovalCycles:      sp.Removal,
				RemovalOccurrences: sp.Occur,
				Reassign:           sp.Reassign,
				MinThreadSize:      sp.MinSize,
				SpawnWindowFactor:  spawnWindowFactor,
			})
		},
	}, nil
}

// Sim runs (or fetches from the engine's artifact cache) one
// simulation. Identical SimSpecs return the identical *cluster.Result.
func (s *Suite) Sim(b *Bench, sp SimSpec) (*cluster.Result, error) {
	j, err := s.simJob(b, sp)
	if err != nil {
		return nil, err
	}
	v, err := s.eng.Exec(s.ctx, j)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", j.Key, err)
	}
	return v.(*cluster.Result), nil
}

// execLayer submits the jobs as one dependency layer of an anonymous
// (uncached) gather job: the engine resolves every dependency
// concurrently, bounded by its core budget, and returns the outputs in
// declaration order.
func (s *Suite) execLayer(jobs []engine.Job) ([]any, error) {
	v, err := s.eng.Exec(s.ctx, engine.Job{
		Deps: jobs,
		Run:  func(ctx context.Context, deps []any) (any, error) { return deps, nil },
	})
	if err != nil {
		return nil, err
	}
	return v.([]any), nil
}

// SimReq names one simulation of a batch: a benchmark and its spec.
type SimReq struct {
	Bench *Bench
	Spec  SimSpec
}

// SimEach runs every requested simulation concurrently as one For
// fan-out on the engine's scheduler (tables resolved as dependencies, identical
// specs deduplicated in flight) and invokes done(i, result, err) as
// each simulation completes. done is called exactly once per request,
// concurrently from multiple goroutines, so it must be safe for
// concurrent use; SimEach returns after every callback has fired. A
// spec that fails to resolve to a job (unknown policy) fails the whole
// call up front, before any work is submitted. Under an active trace
// the whole batch runs as one "exec batch" span recording the group
// size.
func (s *Suite) SimEach(ctx context.Context, reqs []SimReq, done func(i int, r *cluster.Result, err error)) error {
	jobs := make([]engine.Job, len(reqs))
	for i, r := range reqs {
		j, err := s.simJob(r.Bench, r.Spec)
		if err != nil {
			return err
		}
		jobs[i] = j
	}
	span, ctx := obs.StartSpan(ctx, "exec batch", obs.A("group_size", fmt.Sprint(len(jobs))))
	defer span.End()
	s.eng.Sched().For("sim", len(jobs), func(i int) {
		v, err := s.eng.Exec(ctx, jobs[i])
		if err != nil {
			done(i, nil, err)
			return
		}
		done(i, v.(*cluster.Result), nil)
	})
	return nil
}

// SimBatch runs every requested simulation as one engine dependency
// layer, so a figure's whole configuration grid saturates the core
// budget instead of being issued sequentially. Results are positional:
// out[i] answers reqs[i]. Identical specs are deduplicated by the
// engine (in-flight and cached), and results are deterministic — a
// batch returns the same *cluster.Result pointers the equivalent
// sequence of Sim calls would.
func (s *Suite) SimBatch(reqs []SimReq) ([]*cluster.Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]*cluster.Result, len(reqs))
	errs := make([]error, len(reqs))
	if err := s.SimEach(context.Background(), reqs, func(i int, r *cluster.Result, err error) {
		out[i], errs[i] = r, err
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gridSims builds one request per (benchmark, spec) — specs may vary
// per benchmark — runs them as one layer, and returns results indexed
// [bench][spec].
func (s *Suite) gridSims(specs func(b *Bench) []SimSpec) ([][]*cluster.Result, error) {
	var reqs []SimReq
	counts := make([]int, len(s.Benches))
	for bi, b := range s.Benches {
		list := specs(b)
		counts[bi] = len(list)
		for _, sp := range list {
			reqs = append(reqs, SimReq{Bench: b, Spec: sp})
		}
	}
	flat, err := s.SimBatch(reqs)
	if err != nil {
		return nil, err
	}
	out := make([][]*cluster.Result, len(s.Benches))
	k := 0
	for bi := range s.Benches {
		out[bi] = flat[k : k+counts[bi]]
		k += counts[bi]
	}
	return out, nil
}

// BaselineSpec is the single-threaded reference configuration every
// speed-up is measured against.
func BaselineSpec() SimSpec { return SimSpec{Policy: "none", TUs: 1} }

// Baseline returns the single-threaded cycle count for a benchmark.
func (s *Suite) Baseline(b *Bench) (int64, error) {
	r, err := s.Sim(b, BaselineSpec())
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}

// Bench returns the named benchmark from the suite, or nil.
func (s *Suite) Bench(name string) *Bench {
	for _, b := range s.Benches {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Names returns the suite's benchmark names in order.
func (s *Suite) Names() []string {
	names := make([]string, len(s.Benches))
	for i, b := range s.Benches {
		names[i] = b.Name
	}
	return names
}

// FigureIDs lists every reproducible figure in paper order.
func FigureIDs() []string {
	ids := make([]string, 0, len(figures))
	for id := range figures {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		na, nb := figOrder(ids[a]), figOrder(ids[b])
		if na != nb {
			return na < nb
		}
		return ids[a] < ids[b]
	})
	return ids
}

func figOrder(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}
