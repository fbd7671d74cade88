// Package engine is the concurrent job-execution engine behind the
// experiment suite and the spmt-server HTTP service. It models the
// analysis pipeline (generate → emulate → prune CFG → reach →
// select/heuristic tables → simulate) as keyed jobs with dependencies
// and runs them under the process's core budget (internal/sched),
// deduplicating in-flight work singleflight-style and memoizing
// completed artifacts in a content-keyed LRU cache.
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
	// tier: cache misses read through to disk (promoting hits into
	// memory), computed artifacts are written through, and memory
	// evictions are demoted instead of discarded. See OpenDiskTier.
	Disk *DiskTier
	// Remote, when non-nil, is consulted after a local store miss and
	// before computing: a shard cluster wires this to the owning
	// node's artifact-exchange endpoint so artifacts transfer instead
	// of being recomputed. Fetched artifacts are added through the
	// local store (and so written through to Disk).
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
	// Deduped counts calls that joined an in-flight computation of the
	// same key instead of running it again.
	Deduped uint64 `json:"deduped" metric:"spmt_engine_jobs_deduped_total" help:"Engine calls that joined an identical in-flight computation."`
	// Latency holds per-job-kind Run-latency histograms, keyed by the
	// leading segment of the job key ("emu", "reach", "sim", …).
	Latency map[string]LatencyStats `json:"latency,omitempty" metric:"spmt_engine_job_duration_seconds,kind" help:"Engine job Run latency by job kind."`
	// Sched snapshots the scheduler the engine runs on: core budget,
	// waiting runs, busy time.
	Sched sched.Stats `json:"sched"`
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// Engine runs jobs under a bounded core budget over a shared artifact
// cache. It is safe for concurrent use; a single Engine is meant to be
// shared by every suite and server request in the process so they hit
// each other's warm artifacts.
type Engine struct {
	sched *sched.Scheduler
	// ownSched marks a scheduler New built itself (Options.Sched nil);
	// Close stops it. A caller's scheduler is the caller's to close.
	ownSched bool
	// local is the store chain Exec memoizes through (memory, or
	// memory+disk) — also the view Peek and WarmFromDisk use. rstore,
	// when non-nil, is the remote-fetch stage consulted between a local
	// miss and a fresh computation.
	local    Store
	rstore   *remoteStore
	repl     Replicator
	mem      *Cache
	disk     *DiskTier
	latency  *latencyRecorder
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
	var local Store = mem
	if opts.Disk != nil {
		local = NewTieredStore(mem, opts.Disk)
	}
	var rstore *remoteStore
	if opts.Remote != nil {
		rstore = newRemoteStore(local, opts.Remote)
	}
	return &Engine{
		sched:    s,
		ownSched: own,
		local:    local,
		rstore:   rstore,
		repl:     opts.Replicate,
		mem:      mem,
		disk:     opts.Disk,
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

// Drop discards the artifact stored under key from every local tier —
// memory and disk, with the async write queue flushed first so an
// in-flight write-through cannot resurrect the key. It reports whether
// any tier held the key. Drop exists for tests and cache-invalidation
// tooling; it does not touch remote replicas.
func (e *Engine) Drop(key string) bool {
	dropped := e.mem.Remove(key)
	if e.disk != nil {
		e.disk.Flush()
		if e.disk.Remove(key) {
			dropped = true
		}
	}
	return dropped
}

// WarmFromDisk promotes disk-resident artifacts into the memory tier —
// the cold-start path for a server or CLI pointed at a warm store
// directory — and returns how many artifacts were loaded. Only the
// most-recently-used artifacts that fit the memory budget are decoded
// (file size approximates resident cost), so boot time scales with
// the memory tier, not the store directory; the selected set is then
// replayed least recently used first so recency ends hottest-first. A
// memory-only engine warms nothing.
func (e *Engine) WarmFromDisk() int {
	ts, ok := e.local.(*TieredStore)
	if !ok || e.disk == nil {
		return 0
	}
	entries := e.disk.Entries() // LRU first
	start := len(entries)
	var bytes int64
	for i := len(entries) - 1; i >= 0; i-- {
		bytes += entries[i].Bytes
		if (e.mem.maxBytes > 0 && bytes > e.mem.maxBytes) ||
			len(entries)-i > e.mem.capacity {
			break
		}
		start = i
	}
	n := 0
	for _, ent := range entries[start:] {
		if _, ok := ts.mem.lookup(ent.Key, false); ok {
			continue
		}
		if _, ok := ts.Get(ent.Key); ok {
			n++
		}
	}
	return n
}

// Exec resolves a job: cache hit, join of an identical in-flight
// computation, or a fresh run under the core budget (dependencies
// first, concurrently). Exec itself holds no core: only the job's Run
// does, for as long as it runs. The error of a failed run is
// propagated to every joined caller; failures are never cached, so a
// later Exec retries.
//
// Under an active trace, every keyed resolution records an
// "exec <kind>" span whose tier attribute names how the artifact was
// obtained — mem, disk, remote, deduped, or computed — the per-stage
// attribution the span tree exists for. An untraced call pays one
// context lookup and nothing else.
func (e *Engine) Exec(ctx context.Context, j Job) (any, error) {
	if j.Key != "" {
		span, ctx := obs.StartSpan(ctx, "exec "+JobKind(j.Key), obs.A("key", j.Key))
		defer span.End()
		if IsSpeculative(ctx) {
			span.SetAttr("speculative", "true")
		}
		// The memory peek exists only to split the mem/disk tier
		// attribute; it records no stats and is skipped untraced.
		memResident := false
		if span.Active() && e.disk != nil {
			_, memResident = e.mem.Recheck(j.Key)
		}
		if v, ok := e.local.Get(j.Key); ok {
			if e.disk != nil && !memResident {
				span.SetAttr("tier", "disk")
			} else {
				span.SetAttr("tier", "mem")
			}
			return v, nil
		}
		if e.rstore != nil {
			if v, ok := e.rstore.Fetch(ctx, j.Key); ok {
				span.SetAttr("tier", "remote")
				return v, nil
			}
		}
		// Singleflight: join an identical in-flight computation.
		e.mu.Lock()
		if c, ok := e.inflight[j.Key]; ok {
			e.mu.Unlock()
			e.deduped.Add(1)
			span.SetAttr("tier", "deduped")
			// The joiner waits holding no core, so the leader can
			// always get one for its Run.
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != nil && ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				// The leader was cancelled under its own context;
				// retry under ours rather than surfacing a foreign
				// cancellation.
				return e.Exec(ctx, j)
			}
			return c.val, c.err
		}
		c := &call{done: make(chan struct{})}
		e.inflight[j.Key] = c
		e.mu.Unlock()

		completed := false
		fromStore := false
		defer func() {
			if !completed {
				// j.Run panicked. Record an error so joined callers
				// unblock and the key is not wedged forever, then let
				// the panic propagate to our own caller.
				c.err = fmt.Errorf("engine: job %q panicked", j.Key)
			}
			if c.err == nil && !fromStore {
				ps, pctx := obs.StartSpan(ctx, "persist "+JobKind(j.Key), obs.A("key", j.Key))
				e.local.Add(j.Key, c.val)
				if e.repl != nil {
					// Only freshly-computed artifacts replicate: this
					// branch is unreachable for store hits, remote
					// fetches, and injected pushes.
					e.repl.Replicate(pctx, j.Key, c.val)
				}
				ps.End()
			}
			e.mu.Lock()
			delete(e.inflight, j.Key)
			e.mu.Unlock()
			close(c.done)
		}()
		// Double-check now that we are the leader: a racing leader may
		// have completed — and published — this key between our store
		// miss above and the inflight registration. Re-running the job
		// would mint a second pointer for artifacts the racer's
		// consumers already hold.
		if v, ok := e.local.Recheck(j.Key); ok {
			span.SetAttr("tier", "mem")
			c.val, fromStore, completed = v, true, true
			return c.val, nil
		}
		// Committed to computing: consult the request's admission hook.
		// This is the authoritative gate — a warm classification made at
		// the HTTP layer can be stale by now (the artifact evicted
		// between probe and here), and only this point knows a compute
		// is really about to happen. Its wait holds no core.
		if gate := computeGateFrom(ctx); gate != nil {
			release, gerr := gate(ctx)
			if gerr != nil {
				span.SetAttr("tier", "rejected")
				span.SetAttr("error", gerr.Error())
				c.err = gerr
				completed = true
				return nil, gerr
			}
			if release != nil {
				defer release()
			}
		}
		span.SetAttr("tier", "computed")
		c.val, c.err = e.run(ctx, j)
		completed = true
		if c.err != nil {
			span.SetAttr("error", c.err.Error())
		}
		return c.val, c.err
	}
	return e.run(ctx, j)
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
