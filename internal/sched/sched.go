// Package sched is the process-wide core budget every parallelism
// level of the repository shares: engine job runs, the per-bench
// pipeline fan-out and the figure and batch sim grids all draw on ONE
// budget of cores (one per CPU by default) instead of each opening a
// private goroutine pool.
//
// # Only leaf runs hold a core
//
// Every CPU-heavy step of the pipeline is a leaf: a function that
// computes and returns without waiting on anything the scheduler
// governs (workload generation, emulation, CFG pruning, reach, table
// selection, simulation). Do runs exactly such a leaf, on the caller's
// own goroutine, while it holds one of Workers() cores; everything
// else — singleflight joins, dependency fan-out, admission waits,
// remote fetches — waits while holding no core at all. A waiter can
// therefore never starve the runner it waits for, and a core is only
// ever held by code that will give it back by itself. That is why no
// work stealing, helping join or substitute worker is needed: those
// exist to keep a pool live when blocked waiters sit on its workers,
// and here no waiter does.
//
// The leaf contract is checked, not trusted: fn's context is marked as
// holding a core, and a Do under such a context returns ErrNested
// instead of waiting for a second core, which at a budget of one would
// wait forever.
//
// # Fan-out
//
// For runs a loop body over [0, n) on the caller plus helper
// goroutines drawn, without waiting, from a pool of Workers() helper
// slots per scheduler. Helpers hold no core: a body that computes goes
// through Do like any other caller, so the core budget alone bounds
// CPU use, and the helper pool only bounds goroutines. When no slot is
// free (a nested loop inside a saturated sweep) the caller runs every
// index itself.
//
// # Determinism
//
// Each index of a For reserves a fixed, disjoint output slot (a
// bench, a sim result, a response line), so bodies never contend on
// output; when every body is a pure function of its index, results are
// byte-identical for every worker count, including one — the property
// the repository's serial-equivalence suites pin end to end.
package sched

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNested is returned by Do called under a context that already
// holds a core: a leaf run must not wait for another one.
var ErrNested = errors.New("sched: Do called while holding a core")

// coreKey marks the context Do hands to fn.
type coreKey struct{}

// Scheduler is a FIFO budget of cores plus a pool of For helper slots.
// It starts no goroutines of its own and is safe for concurrent use;
// one Scheduler is meant to be shared by every parallelism level in
// the process.
type Scheduler struct {
	workers int
	// helpers counts free For helper slots; it may dip below zero for
	// an instant while a losing taker hands its slot back.
	helpers atomic.Int64

	mu sync.Mutex
	// free counts cores no Do holds. A released core is handed
	// straight to the oldest waiter, so free > 0 implies waiting is
	// empty.
	free    int
	waiting []chan struct{}
	// spec holds speculative calls not yet started, oldest first.
	spec   []*specCall
	closed bool

	submitted atomic.Uint64
	completed atomic.Uint64
	busyNS    atomic.Int64

	kindMu sync.RWMutex
	kinds  map[string]*atomic.Uint64
}

// specCall is one queued Speculate.
type specCall struct {
	fn   func()
	done chan struct{}
}

// New builds a scheduler with the given core budget (<= 0 selects
// runtime.GOMAXPROCS(0)).
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers: workers,
		free:    workers,
		kinds:   make(map[string]*atomic.Uint64),
	}
	s.helpers.Store(int64(workers))
	return s
}

// Workers returns the core budget.
func (s *Scheduler) Workers() int { return s.workers }

// Close withdraws every queued speculative call (its done channel
// closes, fn never runs) and makes later Speculate calls withdraw at
// once. Do and For keep working: the scheduler owns no goroutines, so
// there is nothing else to stop. Close is idempotent and safe to call
// concurrently with itself and with every other method.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	queued := s.spec
	s.spec = nil
	s.mu.Unlock()
	for _, c := range queued {
		s.retire(c)
	}
}

// count records one submission of the given kind.
func (s *Scheduler) count(kind string) {
	s.submitted.Add(1)
	s.kindMu.RLock()
	c := s.kinds[kind]
	s.kindMu.RUnlock()
	if c == nil {
		s.kindMu.Lock()
		if c = s.kinds[kind]; c == nil {
			c = new(atomic.Uint64)
			s.kinds[kind] = c
		}
		s.kindMu.Unlock()
	}
	c.Add(1)
}

// Do waits, in FIFO order, for one of Workers() cores, runs fn on the
// calling goroutine, then releases the core — also when fn panics (the
// panic then continues on the caller). fn must be a leaf: it receives
// a context marked as holding a core, and a Do under that context
// returns ErrNested without running anything. A ctx cancelled while Do
// is still waiting withdraws the call: fn never runs and Do returns
// ctx.Err().
func (s *Scheduler) Do(ctx context.Context, kind string, fn func(context.Context)) error {
	if ctx.Value(coreKey{}) != nil {
		return ErrNested
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.count(kind)
	defer s.completed.Add(1)
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	start := time.Now()
	defer func() { s.busyNS.Add(int64(time.Since(start))) }()
	fn(context.WithValue(ctx, coreKey{}, true))
	return nil
}

// acquire takes a core, queueing behind earlier waiters when none is
// free.
func (s *Scheduler) acquire(ctx context.Context) error {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return nil
	}
	ready := make(chan struct{})
	s.waiting = append(s.waiting, ready)
	s.mu.Unlock()
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	i := slices.Index(s.waiting, ready)
	if i >= 0 {
		s.waiting = slices.Delete(s.waiting, i, i+1)
	}
	s.mu.Unlock()
	if i < 0 {
		// The core was handed over as the context ended: pass it on.
		s.release()
	}
	return ctx.Err()
}

// release hands the core to the oldest waiting Do, or frees it and
// starts the queued speculative calls.
func (s *Scheduler) release() {
	s.mu.Lock()
	if len(s.waiting) > 0 {
		ready := s.waiting[0]
		s.waiting = s.waiting[1:]
		s.mu.Unlock()
		close(ready)
		return
	}
	s.free++
	ready := s.readySpec()
	s.mu.Unlock()
	s.start(ready)
}

// For runs body(i) for every i in [0, n) and returns when every body
// has. The caller runs indices itself; up to n-1 helper goroutines
// join it, each taken without waiting from the scheduler's Workers()
// helper slots, so nested loops inside a saturated sweep run on their
// caller alone. Helpers hold no core. Indices are claimed from a
// shared counter, so bodies must not depend on claim order (see the
// package doc). A panic in a helper is re-raised on the caller once
// every helper has finished.
func (s *Scheduler) For(kind string, n int, body func(i int)) {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		pmu      sync.Mutex
		panicv   any
		panicked bool
	)
	loop := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(i)
		}
	}
	for k := 1; k < n && s.takeHelper(); k++ {
		s.count(kind)
		wg.Add(1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					pmu.Lock()
					if !panicked {
						panicv, panicked = p, true
					}
					pmu.Unlock()
				}
				s.helpers.Add(1)
				s.completed.Add(1)
				wg.Done()
			}()
			loop()
		}()
	}
	func() {
		defer wg.Wait()
		loop()
	}()
	if panicked {
		panic(panicv)
	}
}

// takeHelper claims one helper slot if any is free.
func (s *Scheduler) takeHelper() bool {
	if s.helpers.Add(-1) >= 0 {
		return true
	}
	s.helpers.Add(1)
	return false
}

// Speculate queues fn as speculative work: it starts on its own
// goroutine only when a core is free and no Do is waiting, so
// speculation never delays demand that is already queued. fn itself
// holds no core; whatever it computes goes through Do behind any
// demand queued by then. The returned done channel closes when fn has
// returned or the call was withdrawn; cancel withdraws the call if it
// has not started and is a no-op after. On a closed scheduler the call
// is withdrawn at once.
func (s *Scheduler) Speculate(kind string, fn func()) (done <-chan struct{}, cancel func()) {
	s.count(kind)
	c := &specCall{fn: fn, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.retire(c)
		return c.done, func() {}
	}
	s.spec = append(s.spec, c)
	ready := s.readySpec()
	s.mu.Unlock()
	s.start(ready)
	return c.done, func() {
		s.mu.Lock()
		i := slices.Index(s.spec, c)
		if i >= 0 {
			s.spec = slices.Delete(s.spec, i, i+1)
		}
		s.mu.Unlock()
		if i >= 0 {
			s.retire(c)
		}
	}
}

// readySpec dequeues every queued speculative call if a core is free
// (and so no Do is waiting). The caller holds s.mu.
func (s *Scheduler) readySpec() []*specCall {
	if s.free == 0 {
		return nil
	}
	ready := s.spec
	s.spec = nil
	return ready
}

// start runs dequeued speculative calls, oldest first, each on its own
// goroutine.
func (s *Scheduler) start(ready []*specCall) {
	for _, c := range ready {
		go func() {
			defer s.retire(c)
			c.fn()
		}()
	}
}

// retire closes a speculative call's done channel, run or withdrawn.
func (s *Scheduler) retire(c *specCall) {
	s.completed.Add(1)
	close(c.done)
}

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	// Workers is the core budget.
	Workers int `json:"workers" metric:"spmt_sched_workers" help:"Scheduler core budget."`
	// Submitted counts Do calls, For helpers and Speculate calls;
	// Completed counts their retirements (withdrawn calls included).
	Submitted uint64 `json:"submitted" metric:"spmt_sched_tasks_submitted_total" help:"Do calls, For helpers and Speculate calls handed to the scheduler."`
	Completed uint64 `json:"completed" metric:"spmt_sched_tasks_completed_total" help:"Scheduler submissions retired (withdrawn calls included)."`
	// QueueDepth is the number of Do calls waiting for a core.
	QueueDepth int `json:"queue_depth" metric:"spmt_sched_queue_depth" help:"Do calls waiting for a core."`
	// BusyMS is the cumulative time spent in Do's fn, in milliseconds
	// (divide by wall time × Workers for utilisation).
	BusyMS float64 `json:"busy_ms" metric:"spmt_sched_worker_busy_seconds_total,ms" help:"Cumulative time spent running job leaves while holding a core."`
	// TasksByKind counts submissions by the caller-supplied kind label
	// (job kinds for Do, "bench"/"dep"/"sim" for For, "spec").
	TasksByKind map[string]uint64 `json:"tasks_by_kind,omitempty" metric:"spmt_sched_tasks_total,kind" help:"Scheduler submissions by kind (job kinds, bench, dep, sim, spec)."`
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Workers:   s.workers,
		Submitted: s.submitted.Load(),
		Completed: s.completed.Load(),
		BusyMS:    float64(s.busyNS.Load()) / 1e6,
	}
	s.mu.Lock()
	st.QueueDepth = len(s.waiting)
	s.mu.Unlock()
	s.kindMu.RLock()
	if len(s.kinds) > 0 {
		st.TasksByKind = make(map[string]uint64, len(s.kinds))
		for k, c := range s.kinds {
			st.TasksByKind[k] = c.Load()
		}
	}
	s.kindMu.RUnlock()
	return st
}
