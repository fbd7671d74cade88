// Package engine is the concurrent job-execution engine behind the
// experiment suite and the spmt-server HTTP service. It models the
// analysis pipeline (generate → emulate → prune CFG → reach →
// select/heuristic tables → simulate) as keyed jobs with dependencies
// and runs them under the process's core budget (internal/sched),
// resolving each key through one singleflight walk — memory, disk
// tier, remote peer, compute (see store.go) — and memoizing completed
// artifacts in a content-keyed LRU cache.
//
// Every job is a pure function of its dependency outputs, so execution
// is deterministic: a run with 8 workers produces results identical to
// a serial run, only faster. A core is held only while a job's Run
// function executes; dependency resolution, joins on another caller's
// in-flight computation, admission waits and remote fetches all wait
// while holding none, so arbitrarily deep dependency chains cannot
// starve the budget. Because the suite's bench and sim fan-outs draw
// on the same scheduler, one core budget covers every parallelism
// level at once.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Job is one keyed unit of work. Deps are executed (or fetched from
// cache) before Run is invoked; their outputs are passed to Run in
// declaration order. A Job with an empty Key is never cached or
// deduplicated — it always runs.
//
// Run is a leaf: it holds one core of the scheduler while it runs, so
// it must compute and return without waiting on the engine — anything
// it needs from another job belongs in Deps. Its context is marked as
// holding a core; an Exec under it that has to compute fails with
// sched.ErrNested rather than waiting for a second core.
type Job struct {
	// Key is the content key: it must encode everything that
	// determines the output (program, size class, config hash).
	Key string
	// Deps are resolved concurrently before Run.
	Deps []Job
	// Run computes the artifact. deps[i] is the output of Deps[i].
	Run func(ctx context.Context, deps []any) (any, error)
}

// Options configures an Engine.
type Options struct {
	// Sched, when non-nil, is the scheduler whose core budget jobs run
	// under — normally the one process-wide scheduler, so engine jobs
	// and the fan-outs that submit them share a single core budget.
	// When nil the engine builds its own scheduler with Workers cores.
	Sched *sched.Scheduler
	// Workers sizes the scheduler the engine builds when Sched is nil
	// (<= 0 selects runtime.GOMAXPROCS(0)); Workers == 1 runs one job
	// Run at a time. Ignored when Sched is set.
	Workers int
	// CacheEntries bounds the artifact cache (<= 0 selects
	// DefaultCacheEntries).
	CacheEntries int
	// CacheBytes bounds the artifact cache's approximate resident
	// bytes (<= 0 means unbounded). Artifacts implementing Sizer are
	// charged their reported size; traces dominate, so a byte budget
	// keeps memory flat where an entry count alone would not.
	CacheBytes int64
	// Disk, when non-nil, backs the in-memory cache with a persistent
	// tier: it is the second step of a key's lookup (a hit is promoted
	// into memory), stored artifacts are written through, and memory
	// evictions are demoted instead of discarded. See OpenDiskTier and
	// the lookup order in store.go.
	Disk *DiskTier
	// Remote, when non-nil, is consulted after a local store miss and
	// before computing: a shard cluster wires this to the owning
	// node's artifact-exchange endpoint so artifacts transfer instead
	// of being recomputed. Fetched artifacts are stored like computed
	// ones (and so written through to Disk).
	Remote RemoteFetcher
	// Replicate, when non-nil, is handed every locally-COMPUTED
	// artifact right after it is persisted — the R=2 write-through
	// hook a shard cluster uses to push the artifact to the key's
	// replica owners. Fetched, injected, or store-resident artifacts
	// never reach it (they exist elsewhere by construction), so a
	// replication push can never cascade into another push.
	// Implementations must return quickly (the shard replicator only
	// enqueues) — the hook rides the job-completion path.
	Replicate Replicator
}

// Replicator receives locally-computed artifacts for asynchronous
// replication. Implementations must be safe for concurrent use.
type Replicator interface {
	Replicate(ctx context.Context, key string, val any)
}

// Stats is a point-in-time snapshot of engine activity.
type Stats struct {
	// Cache is the in-memory tier of the artifact store; Disk is the
	// persistent tier (absent when the engine runs memory-only).
	Cache CacheStats `json:"cache"`
	Disk  *DiskStats `json:"disk,omitempty"`
	// Executed counts Run invocations (cache misses that were not
	// deduplicated onto another caller's in-flight run).
	Executed uint64 `json:"executed" metric:"spmt_engine_jobs_executed_total" help:"Engine job Run invocations (store misses not deduplicated)."`
	// Deduped counts calls that joined another caller's in-flight
	// resolution of the same key (a disk promotion, a remote fetch or
	// a computation) instead of resolving it again.
	Deduped uint64 `json:"deduped" metric:"spmt_engine_jobs_deduped_total" help:"Engine calls that joined an identical in-flight resolution."`
	// Latency holds per-job-kind Run-latency histograms, keyed by the
	// leading segment of the job key ("emu", "reach", "sim", …).
	Latency map[string]LatencyStats `json:"latency,omitempty" metric:"spmt_engine_job_duration_seconds,kind" help:"Engine job Run latency by job kind."`
	// Sched snapshots the scheduler the engine runs on: core budget,
	// waiting runs, busy time.
	Sched sched.Stats `json:"sched"`
}

// call is one in-flight resolution of a key: whoever registers it in
// Engine.inflight walks the store tiers (and, for Exec, the remote and
// the computation) while every concurrent caller of the key waits on
// done.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// errUnresolved is what a local-only claim (Peek, WarmFromDisk, a
// refused Inject) publishes when it found nothing to hand over: an Exec
// that joined it retries and resolves the key itself.
var errUnresolved = errors.New("engine: key not resolved locally")

// Engine runs jobs under a bounded core budget over a shared artifact
// cache. It is safe for concurrent use; a single Engine is meant to be
// shared by every suite and server request in the process so they hit
// each other's warm artifacts.
type Engine struct {
	sched *sched.Scheduler
	// ownSched marks a scheduler New built itself (Options.Sched nil);
	// Close stops it. A caller's scheduler is the caller's to close.
	ownSched bool
	mem      *Cache
	disk     *DiskTier
	remote   RemoteFetcher
	repl     Replicator
	latency  *latencyRecorder
	// inflight holds the one call resolving each key that missed the
	// memory tier; see claim.
	mu       sync.Mutex
	inflight map[string]*call
	executed atomic.Uint64
	deduped  atomic.Uint64
}

// New builds an Engine.
func New(opts Options) *Engine {
	s, own := opts.Sched, false
	if s == nil {
		s, own = sched.New(opts.Workers), true
	}
	mem := NewCacheSized(opts.CacheEntries, opts.CacheBytes)
	if opts.Disk != nil {
		// Demote evictions through the background writer: eviction
		// rides an Add's completion path, which must not absorb the
		// encode of a trace-sized artifact. Write-through usually got
		// there first, and PutAsync skips a resident or queued key.
		mem.OnEvict(opts.Disk.PutAsync)
	}
	return &Engine{
		sched:    s,
		ownSched: own,
		mem:      mem,
		disk:     opts.Disk,
		remote:   opts.Remote,
		repl:     opts.Replicate,
		latency:  newLatencyRecorder(),
		inflight: make(map[string]*call),
	}
}

// Workers returns the scheduler's core budget.
func (e *Engine) Workers() int { return e.sched.Workers() }

// Sched returns the scheduler the engine runs jobs on, so nested
// parallelism (the suite's bench and sim sweeps) can fan out under the
// same core budget.
func (e *Engine) Sched() *sched.Scheduler { return e.sched }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Cache:    e.mem.Stats(),
		Executed: e.executed.Load(),
		Deduped:  e.deduped.Load(),
		Latency:  e.latency.snapshot(),
		Sched:    e.sched.Stats(),
	}
	if e.disk != nil {
		ds := e.disk.Stats()
		s.Disk = &ds
	}
	return s
}

// Disk returns the engine's disk tier, or nil when memory-only.
func (e *Engine) Disk() *DiskTier { return e.disk }

// Close drains the disk tier's async-write queue and stops its
// background writer, so every computed artifact is durable before the
// process exits, and closes the scheduler New built when Options.Sched
// was nil (a scheduler passed in is left running). The engine itself
// stays usable: later disk writes degrade to synchronous, and jobs
// still run under the closed scheduler's core budget. Close is
// idempotent and safe to call concurrently with itself and with
// in-flight Exec calls — every Close returns only after the queue has
// drained, so an ops shutdown path racing a SIGTERM drain cannot
// observe a half-flushed store.
func (e *Engine) Close() {
	if e.ownSched {
		e.sched.Close()
	}
	if e.disk != nil {
		e.disk.Close()
	}
}

// Exec resolves a job through the store's one lookup order: a memory
// hit, else a single leader per key walks the disk tier, the remote
// fetcher and finally a fresh run under the core budget (dependencies
// first, concurrently), and every concurrent caller of the key joins
// that walk. Exec itself holds no core: only the job's Run does, for
// as long as it runs. The error of a failed run is propagated to every
// joined caller; failures are never cached, so a later Exec retries.
//
// Under an active trace, every keyed resolution records an
// "exec <kind>" span whose tier attribute names how the artifact was
// obtained — mem, disk, remote, deduped, computed, or rejected (the
// admission gate refused the computation) — the per-stage attribution
// the span tree exists for. An untraced call pays one context lookup
// and nothing else.
func (e *Engine) Exec(ctx context.Context, j Job) (any, error) {
	if j.Key == "" {
		return e.run(ctx, j)
	}
	span, ctx := obs.StartSpan(ctx, "exec "+JobKind(j.Key), obs.A("key", j.Key))
	defer span.End()
	if IsSpeculative(ctx) {
		span.SetAttr("speculative", "true")
	}
	// Fast path: a memory hit takes no in-flight lock.
	if v, ok := e.mem.Get(j.Key); ok {
		span.SetAttr("tier", "mem")
		return v, nil
	}
	c, leader := e.claim(j.Key)
	if !leader {
		e.deduped.Add(1)
		span.SetAttr("tier", "deduped")
		// The joiner waits holding no core, so the leader can always
		// get one for its Run.
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if errors.Is(c.err, errUnresolved) || (c.err != nil && ctx.Err() == nil &&
			(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded))) {
			// A local-only claim found nothing, or the leader was
			// cancelled under its own context: resolve under ours
			// rather than surfacing a foreign outcome.
			return e.Exec(ctx, j)
		}
		return c.val, c.err
	}
	completed := false
	defer func() {
		if !completed {
			// j.Run panicked. Record an error so joined callers
			// unblock and the key is not wedged forever, then let
			// the panic propagate to our own caller.
			c.err = fmt.Errorf("engine: job %q panicked", j.Key)
		}
		e.publish(j.Key, c)
	}()
	tier := e.lead(ctx, j, c)
	completed = true
	span.SetAttr("tier", tier)
	if c.err != nil {
		span.SetAttr("error", c.err.Error())
	} else if tier == "computed" {
		ps, pctx := obs.StartSpan(ctx, "persist "+JobKind(j.Key), obs.A("key", j.Key))
		e.store(j.Key, c.val)
		if e.repl != nil {
			// Only freshly-computed artifacts replicate: store hits,
			// remote fetches, and injected pushes never get here.
			e.repl.Replicate(pctx, j.Key, c.val)
		}
		ps.End()
	}
	return c.val, c.err
}

// lead is the leader's walk for a key it has claimed: the local tiers,
// then the remote fetcher, then — committed to computing — the
// admission gate and the run. It fills c and returns the tier that
// answered; a computed value is persisted by the caller, once the gate
// has been released.
func (e *Engine) lead(ctx context.Context, j Job, c *call) string {
	if v, tier, ok := e.local(j.Key); ok {
		c.val = v
		return tier
	}
	if e.remote != nil {
		if v, ok := e.remote.Fetch(ctx, j.Key); ok {
			e.store(j.Key, v)
			c.val = v
			return "remote"
		}
	}
	// This is the authoritative admission gate — a warm classification
	// made at the HTTP layer can be stale by now (the artifact evicted
	// between probe and here), and only this point knows a compute is
	// really about to happen. Its wait holds no core.
	if gate := computeGateFrom(ctx); gate != nil {
		release, err := gate(ctx)
		if err != nil {
			c.err = err
			return "rejected"
		}
		if release != nil {
			defer release()
		}
	}
	c.val, c.err = e.run(ctx, j)
	return "computed"
}

// claim registers the caller as the one resolver of key, or returns
// the call already resolving it. Every path that can put a key into
// the store — Exec, Peek, WarmFromDisk, Inject — claims it first, so
// a key is resolved by one walk at a time and every consumer within a
// process life observes one pointer (core.Select's graph/reach
// identity check depends on it).
func (e *Engine) claim(key string) (c *call, leader bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.inflight[key]; ok {
		return c, false
	}
	c = &call{done: make(chan struct{})}
	e.inflight[key] = c
	return c, true
}

// publish releases a claim and wakes its joiners. Whatever the claim
// resolved is already in the store, so a caller arriving after the
// release hits memory.
func (e *Engine) publish(key string, c *call) {
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
}

// run resolves dependencies holding no core, then executes j.Run on
// the calling goroutine once the scheduler grants it one; j.Run gets
// the core-holding context Do hands out.
func (e *Engine) run(ctx context.Context, j Job) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deps, err := e.resolveDeps(ctx, j.Deps)
	if err != nil {
		return nil, err
	}
	kind := JobKind(j.Key)
	var v any
	if derr := e.sched.Do(ctx, kind, func(ctx context.Context) {
		e.executed.Add(1)
		rs, rctx := obs.StartSpan(ctx, "run "+kind)
		start := time.Now()
		v, err = j.Run(rctx, deps)
		e.latency.observe(kind, time.Since(start))
		rs.End()
	}); derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, fmt.Errorf("engine: job %q: %w", j.Key, err)
	}
	return v, nil
}

// resolveDeps executes the dependency jobs concurrently — a
// caller-participating parallel-for over the declaration list — and
// returns their outputs in declaration order.
func (e *Engine) resolveDeps(ctx context.Context, deps []Job) ([]any, error) {
	switch len(deps) {
	case 0:
		return nil, nil
	case 1:
		v, err := e.Exec(ctx, deps[0])
		if err != nil {
			return nil, err
		}
		return []any{v}, nil
	}
	vals := make([]any, len(deps))
	errs := make([]error, len(deps))
	e.sched.For("dep", len(deps), func(i int) {
		vals[i], errs[i] = e.Exec(ctx, deps[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}
