// Package spmt is the public facade of the repository: a library
// reproduction of "Thread-Spawning Schemes for Speculative
// Multithreading" (Marcuello & González, HPCA 2002).
//
// The paper proposes selecting speculative-thread spawning pairs — a
// spawning point (SP) and a control quasi-independent point (CQIP) —
// by profile analysis: build the dynamic control-flow graph, prune it
// to the hot 90%, compute for every block pair the probability that the
// second block executes before the first recurs (and the expected
// instruction distance), and keep pairs above probability 0.95 and
// distance 32. Competing CQIPs for one SP are ordered by expected
// thread size, independence, or value predictability. The scheme is
// evaluated on a Clustered Speculative Multithreaded Processor against
// the traditional loop-iteration / loop-continuation / subroutine-
// continuation heuristics.
//
// A typical end-to-end use:
//
//	prog := spmt.MustGenerate("ijpeg", spmt.SizeSmall)
//	art, _ := spmt.Analyze(prog, spmt.AnalyzeConfig{})
//	pairs, _ := spmt.SelectPairs(art, spmt.SelectConfig{})
//	base, _ := spmt.Simulate(art.Trace, spmt.SimConfig{TUs: 1})
//	smt, _ := spmt.Simulate(art.Trace, spmt.SimConfig{TUs: 16, Pairs: pairs})
//	fmt.Printf("speed-up: %.2f\n", spmt.Speedup(base, smt))
//
// The heavy lifting lives in the internal packages (isa, emu, cfg,
// reach, dep, core, heuristic, bpred, vpred, cache, svc, cluster,
// workload, expt); this package re-exports the types and entry points a
// downstream user needs.
package spmt

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/heuristic"
	"repro/internal/isa"
	"repro/internal/reach"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported substrate types.
type (
	// Program is an executable program for the repository's RISC-like
	// ISA.
	Program = isa.Program
	// Trace is a dynamic instruction stream.
	Trace = trace.Trace
	// Profile is the basic-block/edge execution profile.
	Profile = emu.Profile
	// Graph is the (pruned) dynamic control-flow graph.
	Graph = cfg.Graph
	// ReachResult holds the pairwise reaching-probability and
	// expected-distance matrices.
	ReachResult = reach.Result
	// Pair is one spawning pair (SP, CQIP).
	Pair = core.Pair
	// PairTable is a spawn-pair table (one primary pair per SP plus
	// ordered alternates).
	PairTable = core.Table
	// SimConfig parameterises the Clustered SpMT processor simulation.
	SimConfig = cluster.Config
	// SimResult carries simulation statistics.
	SimResult = cluster.Result
	// SelectConfig parameterises profile-based pair selection.
	SelectConfig = core.Config
	// SizeClass scales generated benchmark work.
	SizeClass = workload.SizeClass
)

// Workload size classes.
const (
	SizeTest  = workload.SizeTest
	SizeSmall = workload.SizeSmall
	SizeFull  = workload.SizeFull
)

// CQIP ordering criteria (paper §3.1).
const (
	MaxDistance    = core.MaxDistance
	MaxIndependent = core.MaxIndependent
	MaxPredictable = core.MaxPredictable
)

// Value predictor kinds (paper §4.3.1).
const (
	Perfect   = cluster.Perfect
	Stride    = cluster.Stride
	Context   = cluster.Context
	LastValue = cluster.LastValue
)

// Heuristic schemes (paper §3, the comparison baselines).
const (
	LoopIteration          = heuristic.LoopIteration
	LoopContinuation       = heuristic.LoopContinuation
	SubroutineContinuation = heuristic.SubroutineContinuation
	CombinedHeuristics     = heuristic.Combined
)

// Benchmarks lists the synthetic SpecInt95-like suite.
var Benchmarks = workload.Benchmarks

// ParseSize parses a size-class name ("test", "small", "full").
func ParseSize(s string) (SizeClass, error) { return workload.ParseSize(s) }

// ParseBytes parses a human byte size ("512MB", "1.5gb", "8192") for
// EngineOptions.CacheBytes.
func ParseBytes(s string) (int64, error) { return engine.ParseBytes(s) }

// Concurrent job-execution engine (re-exported from internal/engine).
// An Engine runs keyed, dependency-ordered jobs on a bounded worker
// pool, deduplicates identical in-flight work, and memoizes artifacts
// in a content-keyed LRU cache. One Engine is meant to be shared by
// everything in the process — experiment suites, server handlers,
// ad-hoc analyses — so they hit each other's warm artifacts.
type (
	// Engine is the concurrent job executor.
	Engine = engine.Engine
	// EngineOptions configures the scheduler core budget (Workers —
	// one work-stealing pool shared by job execution, reach fan-out,
	// and GEMM tiles), cache entry capacity, and the cache's
	// resident-byte budget (CacheBytes).
	EngineOptions = engine.Options
	// EngineJob is one keyed unit of work with dependencies.
	EngineJob = engine.Job
	// EngineStats snapshots cache, dedup, byte-residency, and
	// per-job-kind latency counters (per store tier when a disk tier
	// is configured).
	EngineStats = engine.Stats
	// DiskTier is the persistent tier of the artifact store: one
	// content-keyed file per artifact, atomic writes, byte-budgeted
	// LRU eviction, corruption-tolerant reads.
	DiskTier = engine.DiskTier
	// DiskStats snapshots disk-tier hit/write/eviction counters.
	DiskStats = engine.DiskStats
)

// NewEngine builds a concurrent job engine. The zero Options select a
// GOMAXPROCS-sized worker pool and the default artifact-cache capacity.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// OpenDiskTier opens (creating if needed) a persistent artifact store
// under dir, bounded by maxBytes (0 = unbounded), wired to the codec
// covering every pipeline artifact type. Assign the result to
// EngineOptions.Disk, then call Engine.WarmFromDisk to promote a
// previous run's artifacts into memory at boot.
func OpenDiskTier(dir string, maxBytes int64) (*DiskTier, error) {
	return engine.OpenDiskTier(dir, maxBytes, codec.New())
}

// Consistent-hash sharding (re-exported from internal/shard). A
// cluster of spmt-server processes (or embedded engines) maps every
// artifact key to one owning node; see the README's sharded-deployment
// section for topology and failure semantics.
type (
	// ShardRing is an immutable consistent-hash ring mapping artifact
	// keys to owning node names.
	ShardRing = shard.Ring
	// ShardCluster is one node's view of a shard cluster: the member
	// ring, this node's URL, and the peer HTTP client.
	ShardCluster = shard.Cluster
	// ShardOptions configures a ShardCluster (virtual-node count,
	// fetch timeout).
	ShardOptions = shard.Options
	// ShardStats snapshots one node's proxy/fan-out/artifact-exchange
	// counters.
	ShardStats = shard.Stats
)

// NewShardRing builds a consistent-hash ring over the given node names
// with vnodes virtual nodes each (<= 0 selects the default, 128).
func NewShardRing(nodes []string, vnodes int) *ShardRing { return shard.NewRing(nodes, vnodes) }

// NewShardCluster builds one node's cluster view. self must appear in
// members, and every member must be configured with the same list.
func NewShardCluster(self string, members []string, opts ShardOptions) (*ShardCluster, error) {
	return shard.New(self, members, opts)
}

// NewShardFetcher returns the EngineOptions.Remote hook that pulls
// store misses from their owning shard's artifact endpoint.
func NewShardFetcher(cl *ShardCluster) engine.RemoteFetcher {
	return shard.NewFetcher(cl, codec.New())
}

// Generate builds a named benchmark program.
func Generate(name string, size SizeClass) (*Program, error) {
	return workload.Generate(name, size)
}

// MustGenerate is Generate that panics on error.
func MustGenerate(name string, size SizeClass) *Program {
	return workload.MustGenerate(name, size)
}

// Artifacts bundles the profiling pipeline's outputs for one program.
type Artifacts struct {
	Program *Program
	Trace   *Trace
	Profile *Profile
	Graph   *Graph
	Reach   *ReachResult
}

// AnalyzeConfig controls the profiling pipeline.
type AnalyzeConfig struct {
	// Coverage is the pruning coverage target (default 0.90, the
	// paper's value).
	Coverage float64
	// MaxNodes caps the pruned CFG size (default 256).
	MaxNodes int
	// MaxInstrs bounds emulation (default emu.DefaultMaxInstrs).
	MaxInstrs int
}

// Analyze runs the program and produces every profiling artefact the
// spawning analyses need: trace, profile, pruned CFG, and the
// reaching-probability/distance matrices.
func Analyze(p *Program, cfgA AnalyzeConfig) (*Artifacts, error) {
	if cfgA.Coverage == 0 {
		cfgA.Coverage = 0.90
	}
	if cfgA.MaxNodes == 0 {
		cfgA.MaxNodes = 256
	}
	res, err := emu.Run(p, emu.Config{CollectTrace: true, MaxInstrs: cfgA.MaxInstrs})
	if err != nil {
		return nil, fmt.Errorf("spmt: emulate: %w", err)
	}
	g, err := cfg.Build(res.Profile).Prune(cfgA.Coverage, cfgA.MaxNodes)
	if err != nil {
		return nil, fmt.Errorf("spmt: prune: %w", err)
	}
	r, err := reach.Compute(g)
	if err != nil {
		return nil, fmt.Errorf("spmt: reach: %w", err)
	}
	res.Trace.BuildIndex()
	return &Artifacts{Program: p, Trace: res.Trace, Profile: res.Profile, Graph: g, Reach: r}, nil
}

// SelectPairs runs the paper's profile-based spawning-pair selection
// over the artefacts.
func SelectPairs(a *Artifacts, cfgS SelectConfig) (*PairTable, error) {
	return core.Select(a.Profile, a.Graph, a.Reach, a.Trace, cfgS)
}

// HeuristicPairs derives the traditional construct-based pairs
// (loop-iteration, loop-continuation, subroutine-continuation or their
// combination).
func HeuristicPairs(a *Artifacts, scheme heuristic.Scheme) *PairTable {
	return heuristic.Pairs(a.Program, a.Profile, a.Trace, scheme, heuristic.Config{})
}

// Simulate runs the Clustered SpMT processor model over a trace.
func Simulate(tr *Trace, cfgSim SimConfig) (*SimResult, error) {
	return cluster.Simulate(tr, cfgSim)
}

// Speedup returns base.Cycles / other.Cycles.
func Speedup(base, other *SimResult) float64 {
	if other.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(other.Cycles)
}
