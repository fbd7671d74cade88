// Package sched is the process-wide work-stealing scheduler every
// parallelism level of the repository runs on: engine job execution,
// the per-bench pipeline fan-out and the figure and batch sim grids
// all submit tasks to ONE pool of workers (one per core by default)
// instead of each opening a private goroutine pool. A batch sweep
// keeps exactly `workers` goroutines busy, so a fixed core budget is
// neither under- nor over-subscribed no matter how the levels nest.
//
// # Topology
//
// Each worker owns a LIFO deque: tasks forked by code running on that
// worker push to its own deque and are popped newest-first (locality —
// a nested fan-out runs hot on the worker that forked it), while idle workers steal oldest-first from a victim's
// deque (the stolen task is the coarsest remaining work). External
// goroutines (HTTP handlers, CLIs) submit through a global inject
// queue. Parked workers are woken through a bounded token channel; a
// token is sent on every enqueue, so a queued task can never be
// stranded while a worker sleeps.
//
// # Nesting without deadlock
//
// Two different waiting rules keep the pool deadlock-free, and the
// distinction between them is load-bearing.
//
// Group.Wait — the fork-join join — helps, but ONLY with tasks that
// descend from the waited group (the group's own forks and any groups
// forked inside them). This is the fully-strict discipline of Cilk-
// style schedulers: a joiner may run its own subtree but never steals
// unrelated work onto its stack. Helping with an ARBITRARY task would
// let that task block on a resource the joiner's own lower frames hold
// — with the engine's singleflight that is a real cycle, not a
// theoretical one: a worker leading the computation of key K helps a
// task that transitively joins K and waits forever on its own
// unfinished frame. Subtree-only helping cannot form that cycle:
// everything in the subtree is strictly below the helper's leaderships
// in the dependency DAG.
//
// Block — the primitive for waiting on an EXTERNAL condition (an
// engine singleflight join) — never helps. Instead it lends the
// blocked worker's core to a substitute worker for the duration of the
// wait, the block_in_place design of tokio and rayon: the pool always
// has ~W runnable workers, queued tasks (including whatever the
// blocked worker is waiting for) always have a runner, and because the
// blocked goroutine's stack acquires nothing new while parked, the
// waits-for graph stays exactly the acyclic dependency DAG.
//
// # Reserve/commit determinism
//
// The Group's parallel-for follows the round-based reserve/commit
// discipline of PBBS's speculative_for: every index i in [0, n)
// RESERVES a fixed, disjoint output slot (a bench, a sim result, a
// response line) at submission time — the reservation is the index
// itself, not a runtime allocation — so bodies never contend on
// output, and any ordered side effects COMMIT through a frontier in
// ascending index order regardless of completion order (ForCommit).
// Because slots are disjoint, commit order is fixed, and every body is
// a pure function of its index, results are byte-identical for every
// worker count, including one — the property the repository's
// serial-equivalence suites pin end to end.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler runs tasks on a pool of worker goroutines: a fixed set of
// primaries (the core budget) plus transient substitutes covering for
// primaries parked in Block. It is safe for concurrent use; one
// Scheduler is meant to be shared by every parallelism level in the
// process.
type Scheduler struct {
	// wmu guards ws: the first `fixed` entries are the permanent
	// workers, the tail is the live substitutes.
	wmu   sync.RWMutex
	ws    []*worker
	fixed int

	mu     sync.Mutex
	global []*task
	// spec is the low-priority speculative queue: claimed only by a
	// fully-idle worker loop after its unfiltered scan of every demand
	// queue (own deque, global, steal sweep) came up empty. Helping
	// joins never claim from it, so speculative work can never run on
	// the stack of a demand task nor delay a demand join.
	spec []*task

	// notify carries wake tokens to parked workers. A token is posted
	// on every enqueue and consumed only by workers whose rescan is
	// unfiltered, so a failed (full) send still guarantees enough
	// post-push rescans to claim the task (see the liveness note on
	// worker.loop).
	notify    chan struct{}
	closed    chan struct{}
	closeOnce sync.Once

	// retire counts substitute workers that should exit at their next
	// idle moment (their lender's Block has returned).
	retire atomic.Int64

	submitted     atomic.Uint64
	completed     atomic.Uint64
	specSubmitted atomic.Uint64
	inline        atomic.Uint64
	steals        atomic.Uint64
	parks         atomic.Uint64
	unparks       atomic.Uint64
	subSpawns     atomic.Uint64

	kindMu sync.RWMutex
	kinds  map[string]*atomic.Uint64

	// byGoid maps a worker goroutine's runtime ID to its *worker, the
	// "am I on a worker?" lookup behind inline execution, fork
	// locality, and the helping join.
	byGoid sync.Map
}

// task is one queued unit of work.
type task struct {
	fn   func()
	g    *Group // join target for group tasks (nil for Do tasks)
	done chan struct{}
	// state: 0 pending, 1 claimed (running or finished), 2 cancelled.
	// Claiming is a CAS so a context-cancelled Do task and the worker
	// that popped it cannot both think they own it.
	state  atomic.Int32
	panicv any
	panics bool
}

type worker struct {
	s   *Scheduler
	id  int
	sub bool
	// cur is the task this worker is currently running — the fork
	// point NewGroup reads to parent a nested group. Only touched by
	// the worker's own goroutine.
	cur *task

	mu sync.Mutex
	dq []*task // bottom (LIFO end) at the tail

	tasks  atomic.Uint64
	steals atomic.Uint64
	busyNS atomic.Int64
}

// New builds a scheduler with the given number of primary workers
// (<= 0 selects runtime.GOMAXPROCS(0)). Workers are spawned eagerly
// and park when idle.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		fixed:  workers,
		notify: make(chan struct{}, workers),
		closed: make(chan struct{}),
		kinds:  make(map[string]*atomic.Uint64),
	}
	s.ws = make([]*worker, workers)
	for i := range s.ws {
		s.ws[i] = &worker{s: s, id: i}
	}
	// Spawn only after the slice is fully populated: a worker's steal
	// sweep reads every element.
	var ready sync.WaitGroup
	for _, w := range s.ws {
		ready.Add(1)
		go w.loop(&ready)
	}
	// Wait for every worker to register its goroutine ID so the
	// identity map is complete from the first task on.
	ready.Wait()
	return s
}

var (
	defaultOnce sync.Once
	defaultSch  *Scheduler
)

// Default returns the lazily-created process-wide scheduler, sized one
// worker per core (GOMAXPROCS), for callers that want one shared pool
// without building their own.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSch = New(0) })
	return defaultSch
}

// Workers returns the primary pool size — the core budget.
func (s *Scheduler) Workers() int { return s.fixed }

// Close stops the workers once they go idle: each drains what is still
// queued, then exits, so a closed scheduler holds no goroutines. The
// scheduler stays usable: work submitted from outside the pool after
// Close runs on the submitting goroutine (Do, Group.Go and For run
// inline), and speculative work is withdrawn. Close is idempotent and
// safe to call concurrently with itself.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
}

// countKind bumps the per-kind submission counter.
func (s *Scheduler) countKind(kind string) {
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

// current returns the worker the calling goroutine is, or nil for an
// external goroutine.
func (s *Scheduler) current() *worker {
	if v, ok := s.byGoid.Load(goid()); ok {
		return v.(*worker)
	}
	return nil
}

// enqueue places t on the submitter's own deque (locality for nested
// fork-join) or the global queue, then posts a wake token.
//
// An external submission that finds the scheduler closed takes its own
// task back and runs it inline: the workers may already have made
// their last scan. Only the submitter's own task is reclaimed — helping
// with an arbitrary one could deadlock (see package doc). A worker's
// own push needs no such check, since that worker is still running and
// rescans before it exits.
func (s *Scheduler) enqueue(w *worker, t *task) {
	s.submitted.Add(1)
	if w != nil {
		w.mu.Lock()
		w.dq = append(w.dq, t)
		w.mu.Unlock()
	} else {
		s.mu.Lock()
		s.global = append(s.global, t)
		s.mu.Unlock()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	if w == nil && s.isClosed() && s.unqueue(t) {
		s.run(nil, t)
	}
}

// isClosed reports whether Close has been called.
func (s *Scheduler) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// unqueue removes t from the global queue, reporting whether it was
// still there (false: a worker has claimed it and will run it).
func (s *Scheduler) unqueue(t *task) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range s.global {
		if v == t {
			s.global = append(s.global[:i], s.global[i+1:]...)
			return true
		}
	}
	return false
}

// find claims the next runnable task for w: own deque newest-first,
// then the global queue oldest-first, then a steal sweep over the
// other workers' deques oldest-first, and — only on an unfiltered scan
// that found no demand work at all — the speculative queue oldest-
// first. A nil g accepts any task; a non-nil g restricts the claim to
// tasks descending from g (the fully-strict helping rule — see package
// doc) and never touches the speculative queue.
func (s *Scheduler) find(w *worker, g *Group) *task {
	w.mu.Lock()
	for i := len(w.dq) - 1; i >= 0; i-- {
		if g == nil || g.contains(w.dq[i]) {
			t := w.dq[i]
			w.dq = append(w.dq[:i], w.dq[i+1:]...)
			w.mu.Unlock()
			return t
		}
	}
	w.mu.Unlock()

	s.mu.Lock()
	for i := 0; i < len(s.global); i++ {
		if g == nil || g.contains(s.global[i]) {
			t := s.global[i]
			s.global = append(s.global[:i], s.global[i+1:]...)
			s.mu.Unlock()
			return t
		}
	}
	s.mu.Unlock()

	s.wmu.RLock()
	n := len(s.ws)
	for i := 1; i < n; i++ {
		v := s.ws[(w.id+i)%n]
		if v == w {
			continue
		}
		v.mu.Lock()
		for j := 0; j < len(v.dq); j++ {
			if g == nil || g.contains(v.dq[j]) {
				t := v.dq[j]
				v.dq = append(v.dq[:j], v.dq[j+1:]...)
				v.mu.Unlock()
				s.wmu.RUnlock()
				s.steals.Add(1)
				w.steals.Add(1)
				return t
			}
		}
		v.mu.Unlock()
	}
	s.wmu.RUnlock()

	if g == nil {
		s.mu.Lock()
		if len(s.spec) > 0 {
			t := s.spec[0]
			s.spec = s.spec[1:]
			s.mu.Unlock()
			return t
		}
		s.mu.Unlock()
	}
	return nil
}

// run claims and executes t on w, or on the calling goroutine when w
// is nil (a submission to a closed scheduler). A lost claim means the
// task was cancelled; it is dropped.
func (s *Scheduler) run(w *worker, t *task) {
	if !t.state.CompareAndSwap(0, 1) {
		s.completed.Add(1) // cancelled before it ran
		return
	}
	if w == nil {
		w = &worker{s: s}
	}
	prev := w.cur
	w.cur = t
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				// Deliver the panic to the join point (Group.Wait or
				// the Do caller) instead of killing the worker: the
				// engine's job-panic protocol re-raises it on the
				// goroutine that owns the job.
				t.panicv, t.panics = p, true
			}
			w.cur = prev
			if t.g != nil {
				t.g.finish(t)
			} else if t.done != nil {
				close(t.done)
			}
		}()
		t.fn()
	}()
	w.tasks.Add(1)
	w.busyNS.Add(int64(time.Since(start)))
	s.completed.Add(1)
}

// loop is the worker body: run anything findable, park on the token
// channel otherwise; substitutes retire at an idle moment once their
// lender has returned from Block.
//
// Liveness: an enqueue whose token send finds the channel full has, at
// that instant, a channel's worth of unconsumed tokens; each of those
// is consumed by a worker that then rescans every queue under the
// queue locks, so the pushed task is seen by at least one post-push
// unfiltered rescan (tokens are consumed only here, never by filtered
// helpers). A worker parks only after an empty unfiltered scan, so no
// task is ever stranded while a worker sleeps.
func (w *worker) loop(ready *sync.WaitGroup) {
	s := w.s
	id := goid()
	s.byGoid.Store(id, w)
	if ready != nil {
		ready.Done()
	}
	defer s.byGoid.Delete(id)
	for {
		if t := s.find(w, nil); t != nil {
			s.run(w, t)
			continue
		}
		// Idle: an idle substitute with a pending retirement exits.
		// Its deque is necessarily empty (only code running ON a
		// worker pushes to its deque), so nothing is abandoned.
		if w.sub && s.tryRetire() {
			s.removeWorker(w)
			return
		}
		s.parks.Add(1)
		select {
		case <-s.notify:
			s.unparks.Add(1)
		case <-s.closed:
			// Drain before exiting: a task pushed between the empty
			// scan above and Close would otherwise be stranded.
			if t := s.find(w, nil); t != nil {
				s.unparks.Add(1)
				s.run(w, t)
				continue
			}
			return
		}
	}
}

// tryRetire consumes one pending retirement.
func (s *Scheduler) tryRetire() bool {
	for {
		n := s.retire.Load()
		if n <= 0 {
			return false
		}
		if s.retire.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// lend keeps the pool at full strength while the calling worker blocks
// in Block: it cancels a pending substitute retirement if one exists
// (the idle substitute keeps serving — no spawn churn), otherwise it
// spawns a fresh substitute worker.
func (s *Scheduler) lend() {
	if s.tryRetire() {
		return
	}
	w := &worker{s: s, sub: true}
	s.wmu.Lock()
	w.id = len(s.ws)
	s.ws = append(s.ws, w)
	s.wmu.Unlock()
	s.subSpawns.Add(1)
	go w.loop(nil)
}

// reclaim returns the lent core: the next substitute to go idle exits.
// The wake token lets a parked substitute notice the retirement.
func (s *Scheduler) reclaim() {
	s.retire.Add(1)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// removeWorker unlinks an exiting substitute from the steal sweep.
func (s *Scheduler) removeWorker(w *worker) {
	s.wmu.Lock()
	for i, v := range s.ws {
		if v == w {
			s.ws = append(s.ws[:i], s.ws[i+1:]...)
			break
		}
	}
	s.wmu.Unlock()
}

// Do runs fn under the scheduler's core budget and returns when it has
// finished: called from a worker it runs inline (the caller already
// holds a core), called externally it is queued and picked up by a
// worker. A context cancelled while the task is still queued withdraws
// it — fn has not run and never will — and returns ctx.Err(); once fn
// has started, Do waits for it. A panic inside fn resurfaces on the
// caller.
func (s *Scheduler) Do(ctx context.Context, kind string, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.countKind(kind)
	if w := s.current(); w != nil {
		s.submitted.Add(1)
		s.inline.Add(1)
		start := time.Now()
		defer func() {
			w.tasks.Add(1)
			w.busyNS.Add(int64(time.Since(start)))
			s.completed.Add(1)
		}()
		fn()
		return nil
	}
	t := &task{fn: fn, done: make(chan struct{})}
	s.enqueue(nil, t)
	select {
	case <-t.done:
	case <-ctx.Done():
		if t.state.CompareAndSwap(0, 2) {
			return ctx.Err()
		}
		<-t.done // started before the cancellation won; let it finish
	}
	if t.panics {
		panic(t.panicv)
	}
	return nil
}

// Block waits until done is closed or ctx is cancelled, returning
// ctx.Err() if cancellation won. Called from a worker it lends the
// worker's core to a substitute for the duration of the wait, so the
// pool keeps ~Workers() runnable workers and whatever computation done
// is waiting on always has a runner. Block deliberately does NOT help
// run queued tasks: an arbitrary helped task could block on a resource
// the caller's own stack holds (see package doc).
func (s *Scheduler) Block(ctx context.Context, done <-chan struct{}) error {
	if w := s.current(); w != nil {
		s.lend()
		defer s.reclaim()
	}
	s.parks.Add(1)
	defer s.unparks.Add(1)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Speculate submits fn as a speculative task: it runs only when a
// worker's unfiltered scan finds no demand work anywhere in the pool,
// so speculation never delays a queued demand task. The returned done
// channel closes when fn has finished or the task was withdrawn;
// cancel withdraws the task if it has not started (after the task has
// started, cancel is a no-op and done closes when fn returns). Both
// are safe to use from any goroutine; cancel is idempotent.
//
// A wake token is posted like any enqueue so a fully-parked pool
// notices the work; the woken worker still drains demand queues first
// by construction of find.
func (s *Scheduler) Speculate(kind string, fn func()) (done <-chan struct{}, cancel func()) {
	s.countKind(kind)
	t := &task{fn: fn, done: make(chan struct{})}
	s.submitted.Add(1)
	s.specSubmitted.Add(1)
	s.mu.Lock()
	s.spec = append(s.spec, t)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	cancel = func() {
		// A won CAS means fn never ran and never will: the worker that
		// eventually pops the task loses its claim CAS and drops it
		// (run's failed-claim path does not touch done, so this close
		// is the only one).
		if t.state.CompareAndSwap(0, 2) {
			close(t.done)
		}
	}
	if s.isClosed() {
		cancel() // no idle worker will ever pick it up
	}
	return t.done, cancel
}

// Group is one fork-join scope. Create it, fork with Go, join with
// Wait (exactly once, from the creating goroutine). Tasks may fork
// further into the same group — or open nested groups of their own —
// and the join helps run exactly that subtree; the join cannot fire
// before late forks are counted because their parent task is still
// pending.
type Group struct {
	s *Scheduler
	// parent is the group of the task that created this one (nil when
	// created outside any group task) — the ancestry the fully-strict
	// helping rule walks.
	parent *Group
	// pending starts at 1 (the owner's token, released by Wait) so the
	// zero crossing — which closes done — happens exactly once.
	pending atomic.Int64
	done    chan struct{}

	pmu    sync.Mutex
	panicv any
	panics bool
}

// NewGroup opens a fork-join scope, parented to the group of the task
// the calling worker is running (if any).
func (s *Scheduler) NewGroup() *Group {
	g := &Group{s: s, done: make(chan struct{})}
	if w := s.current(); w != nil && w.cur != nil {
		g.parent = w.cur.g
	}
	g.pending.Store(1)
	return g
}

// contains reports whether t descends from g: t belongs to g or to a
// group transitively forked from inside g's tasks.
func (g *Group) contains(t *task) bool {
	for x := t.g; x != nil; x = x.parent {
		if x == g {
			return true
		}
	}
	return false
}

// Go forks fn into the group, onto the forking worker's own deque
// (LIFO locality) or the global queue when forked externally.
func (g *Group) Go(kind string, fn func()) {
	g.s.countKind(kind)
	g.pending.Add(1)
	t := &task{fn: fn, g: g}
	g.s.enqueue(g.s.current(), t)
}

// finish retires one group task, recording its panic (first wins) and
// closing the join channel on the last retirement.
func (g *Group) finish(t *task) {
	if t.panics {
		g.pmu.Lock()
		if !g.panics {
			g.panicv, g.panics = t.panicv, true
		}
		g.pmu.Unlock()
	}
	if g.pending.Add(-1) == 0 {
		close(g.done)
	}
}

// Wait joins the group: called on a worker it helps run the group's
// own subtree (its tasks and their nested groups', wherever they were
// stolen to) until the group drains; tasks outside the subtree are
// never helped — they are the other workers' and substitutes' job.
// Once the subtree has no claimable work left (everything is running
// elsewhere), Wait parks on the join; the runners' own worker loops
// pick up any late forks. If any task panicked, Wait re-panics with
// the first recovered value after the group has fully drained.
func (g *Group) Wait() {
	s := g.s
	if g.pending.Add(-1) == 0 {
		close(g.done)
	} else if w := s.current(); w != nil {
		for {
			select {
			case <-g.done:
			default:
				if t := s.find(w, g); t != nil {
					s.run(w, t)
					continue
				}
				s.parks.Add(1)
				<-g.done
				s.unparks.Add(1)
			}
			break
		}
	}
	<-g.done
	if g.panics {
		panic(g.panicv)
	}
}

// For runs body(i) for every i in [0, n): the caller participates and
// up to workers-1 forked tasks claim indices from a shared counter, so
// progress never depends on a free worker and parallelism never
// exceeds the core budget. Each index is a reservation of a disjoint
// output slot (see package doc); bodies must not depend on claim
// order. For returns when every body has.
func (s *Scheduler) For(kind string, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	}
	k := min(s.fixed, n) - 1
	if k <= 0 {
		loop()
		return
	}
	g := s.NewGroup()
	for j := 0; j < k; j++ {
		g.Go(kind, loop)
	}
	loop()
	g.Wait()
}

// ForCommit is For with an ordered commit phase: commit(i) is invoked
// for i = 0, 1, 2, … strictly in ascending order, each after body(i)
// has returned — the fixed-order commit half of the reserve/commit
// contract. Commits are serialised (one at a time, under the frontier
// lock) on whichever runner completed the frontier index, so they must
// be brief; bodies still run fully in parallel. Output driven only by
// commit order is therefore byte-identical for every worker count.
func (s *Scheduler) ForCommit(kind string, n int, body func(i int), commit func(i int)) {
	if n <= 0 {
		return
	}
	var fr struct {
		sync.Mutex
		ready []bool
		next  int
	}
	fr.ready = make([]bool, n)
	s.For(kind, n, func(i int) {
		body(i)
		fr.Lock()
		defer fr.Unlock()
		fr.ready[i] = true
		for fr.next < n && fr.ready[fr.next] {
			commit(fr.next)
			fr.next++
		}
	})
}

// WorkerStats is one primary worker's lifetime occupancy.
type WorkerStats struct {
	// Tasks counts tasks this worker executed (inline Do runs
	// included); Steals counts how many of them it stole.
	Tasks  uint64 `json:"tasks"`
	Steals uint64 `json:"steals"`
	// BusyMS is cumulative task-execution time in milliseconds — the
	// occupancy numerator (divide by wall time × workers for pool
	// utilisation).
	BusyMS float64 `json:"busy_ms"`
	// QueueDepth is the instantaneous deque depth.
	QueueDepth int `json:"queue_depth"`
}

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	Workers int `json:"workers"`
	// Submitted counts every task handed to the scheduler (Do, Go,
	// inline); Completed counts retirements (cancelled tasks retire
	// without running); Inline counts Do calls that ran directly on a
	// worker already holding a core.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Inline    uint64 `json:"inline"`
	// Steals counts tasks claimed from another worker's deque; Parks/
	// Unparks count idle transitions (blocking waits included).
	Steals  uint64 `json:"steals"`
	Parks   uint64 `json:"parks"`
	Unparks uint64 `json:"unparks"`
	// SubstitutesSpawned counts substitute workers ever spawned to
	// cover for Block-parked workers; SubstitutesAlive is how many are
	// live right now (serving or awaiting retirement).
	SubstitutesSpawned uint64 `json:"substitutes_spawned"`
	SubstitutesAlive   int    `json:"substitutes_alive"`
	// QueueDepth is the instantaneous total of queued demand tasks
	// (global + every deque); the speculative queue is counted
	// separately in SpecQueued.
	QueueDepth int `json:"queue_depth"`
	// SpecSubmitted counts tasks ever submitted through Speculate;
	// SpecQueued is the instantaneous speculative-queue depth.
	SpecSubmitted uint64 `json:"spec_submitted"`
	SpecQueued    int    `json:"spec_queued"`
	// TasksByKind counts submissions by the caller-supplied kind label
	// ("bench", "dep", "sim", "spec").
	TasksByKind map[string]uint64 `json:"tasks_by_kind,omitempty"`
	// PerWorker is indexed by primary worker ID.
	PerWorker []WorkerStats `json:"per_worker"`
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Workers:            s.fixed,
		Submitted:          s.submitted.Load(),
		Completed:          s.completed.Load(),
		Inline:             s.inline.Load(),
		Steals:             s.steals.Load(),
		Parks:              s.parks.Load(),
		Unparks:            s.unparks.Load(),
		SubstitutesSpawned: s.subSpawns.Load(),
		SpecSubmitted:      s.specSubmitted.Load(),
	}
	s.mu.Lock()
	st.QueueDepth = len(s.global)
	st.SpecQueued = len(s.spec)
	s.mu.Unlock()
	st.PerWorker = make([]WorkerStats, s.fixed)
	s.wmu.RLock()
	st.SubstitutesAlive = len(s.ws) - s.fixed
	for i, w := range s.ws {
		w.mu.Lock()
		depth := len(w.dq)
		w.mu.Unlock()
		st.QueueDepth += depth
		if i < s.fixed {
			st.PerWorker[i] = WorkerStats{
				Tasks:      w.tasks.Load(),
				Steals:     w.steals.Load(),
				BusyMS:     float64(w.busyNS.Load()) / 1e6,
				QueueDepth: depth,
			}
		}
	}
	s.wmu.RUnlock()
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
