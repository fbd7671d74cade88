package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hold takes one core of s with a Do that runs until the returned
// release is called; it returns once the Do is running.
func hold(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	running := make(chan struct{})
	unblock := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		_ = s.Do(context.Background(), "hold", func(context.Context) {
			close(running)
			<-unblock
		})
	}()
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("holder never got a core")
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(unblock) })
		<-finished
	}
}

// waitQueued polls until n Do calls are waiting for a core.
func waitQueued(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().QueueDepth != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", s.Stats().QueueDepth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// specQueued reports how many speculative calls wait to start.
func specQueued(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spec)
}

func TestDoExternalRuns(t *testing.T) {
	s := New(2)
	defer s.Close()
	var ran atomic.Bool
	if err := s.Do(context.Background(), "t", func(context.Context) { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("Do returned before fn ran")
	}
}

// TestDoNestedReturnsErrNested: fn holds a core, so a Do under its
// context is a broken leaf contract. It must fail loudly with
// ErrNested and not run — waiting would deadlock a budget of one.
func TestDoNestedReturnsErrNested(t *testing.T) {
	s := New(1)
	defer s.Close()
	var inner atomic.Bool
	var err error
	if derr := s.Do(context.Background(), "outer", func(ctx context.Context) {
		err = s.Do(ctx, "inner", func(context.Context) { inner.Store(true) })
	}); derr != nil {
		t.Fatal(derr)
	}
	if !errors.Is(err, ErrNested) {
		t.Fatalf("nested Do = %v, want ErrNested", err)
	}
	if inner.Load() {
		t.Fatal("nested Do ran fn")
	}
	// The mark belongs to the context, not the scheduler: a leaf may
	// not wait on a second scheduler's core either.
	other := New(1)
	defer other.Close()
	_ = s.Do(context.Background(), "outer", func(ctx context.Context) {
		err = other.Do(ctx, "inner", func(context.Context) { inner.Store(true) })
	})
	if !errors.Is(err, ErrNested) || inner.Load() {
		t.Fatalf("Do on another scheduler under a core-holding ctx = %v (ran %v), want ErrNested", err, inner.Load())
	}
	if st := s.Stats(); st.TasksByKind["inner"] != 0 {
		t.Fatalf("a refused nested Do was counted as a task: %v", st.TasksByKind)
	}
}

func TestDoCancelledBeforeStart(t *testing.T) {
	s := New(1)
	defer s.Close()
	release := hold(t, s)
	defer release()

	var ran atomic.Bool
	fn := func(context.Context) { ran.Store(true) }

	// Cancelled before the call: refused up front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Do(ctx, "late", fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelled while waiting for the held core: withdrawn.
	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Do(ctx, "waiting", fn) }()
	waitQueued(t, s, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a waiting Do ignored cancellation")
	}
	if n := s.Stats().QueueDepth; n != 0 {
		t.Fatalf("withdrawn Do still queued: depth %d", n)
	}
	release()
	if ran.Load() {
		t.Fatal("cancelled Do ran fn")
	}
	// The withdrawn waiter must not have swallowed the core.
	if err := s.Do(context.Background(), "after", func(context.Context) {}); err != nil {
		t.Fatal(err)
	}
}

// TestDoFIFO: waiters get the core in arrival order.
func TestDoFIFO(t *testing.T) {
	s := New(1)
	defer s.Close()
	release := hold(t, s)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Do(context.Background(), "t", func(context.Context) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}()
		waitQueued(t, s, i+1)
	}
	release()
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("cores granted in order %v, want arrival order", order)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	s := New(1)
	defer s.Close()
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want boom", p)
			}
		}()
		_ = s.Do(context.Background(), "t", func(context.Context) { panic("boom") })
		t.Fatal("Do returned instead of panicking")
	}()
	// The panicking fn must have released the only core.
	done := make(chan error, 1)
	go func() { done <- s.Do(context.Background(), "t", func(context.Context) {}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a panicking Do kept its core")
	}
}

func TestForPanicPropagates(t *testing.T) {
	s := New(4)
	defer s.Close()
	var finished atomic.Int64
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want boom", p)
			}
		}()
		s.For("t", 64, func(i int) {
			if i == 1 {
				panic("boom")
			}
			time.Sleep(100 * time.Microsecond)
			finished.Add(1)
		})
		t.Fatal("For returned instead of panicking")
	}()
	// Every helper has returned its slot before the panic surfaced.
	if n := s.helpers.Load(); n != 4 {
		t.Fatalf("%d free helper slots after the panic, want 4", n)
	}
	if finished.Load() == 0 {
		t.Fatal("no other body ran")
	}
}

func TestForNestedFanOut(t *testing.T) {
	// batch → sims → tables nesting: each level fans out from inside a
	// body of the level above, and the leaves take cores through Do.
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			s := New(workers)
			defer s.Close()
			var total atomic.Int64
			s.For("sim", 4, func(int) {
				s.For("dep", 4, func(int) {
					s.For("tile", 4, func(int) {
						if err := s.Do(context.Background(), "leaf", func(context.Context) { total.Add(1) }); err != nil {
							t.Error(err)
						}
					})
				})
			})
			if got := total.Load(); got != 64 {
				t.Fatalf("ran %d leaf bodies, want 64", got)
			}
			if n := s.helpers.Load(); n != int64(workers) {
				t.Fatalf("%d free helper slots after the loops, want %d", n, workers)
			}
		})
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		s := New(workers)
		n := 1000
		hits := make([]atomic.Int32, n)
		s.For("t", n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("w=%d: index %d ran %d times", workers, i, c)
			}
		}
		s.For("t", 0, func(int) { t.Fatal("body ran for n=0") })
		s.Close()
	}
}

func TestGoroutineCountIsOWorkers(t *testing.T) {
	// One helper pool per scheduler: a deeply nested fan-out must not
	// spawn goroutines per task. Allow slack for the runtime and test
	// harness, but 8 helper slots running 8×8×8 nested bodies must
	// stay far below the ~512 goroutines a pool-per-level design would
	// open.
	before := runtime.NumGoroutine()
	s := New(8)
	defer s.Close()
	var peak atomic.Int64
	s.For("sim", 8, func(int) {
		s.For("reach", 8, func(int) {
			s.For("tile", 8, func(int) {
				n := int64(runtime.NumGoroutine())
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
			})
		})
	})
	if got := peak.Load(); got > int64(before)+8+16 {
		t.Fatalf("peak goroutines %d (baseline %d, 8 workers): fan-out is spawning per-task goroutines", got, before)
	}
}

func TestStatsCounts(t *testing.T) {
	s := New(2)
	defer s.Close()
	for i := 0; i < 10; i++ {
		_ = s.Do(context.Background(), "a", func(context.Context) { time.Sleep(time.Millisecond) })
	}
	s.For("b", 5, func(int) {})
	st := s.Stats()
	if st.Workers != 2 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.Submitted < 10 || st.Completed != st.Submitted {
		t.Fatalf("submitted=%d completed=%d, want >= 10 and equal", st.Submitted, st.Completed)
	}
	if st.TasksByKind["a"] != 10 {
		t.Fatalf("kind a = %d, want 10", st.TasksByKind["a"])
	}
	if st.TasksByKind["b"] == 0 {
		t.Fatal("kind b missing")
	}
	if st.BusyMS < 10 {
		t.Fatalf("busy %.2f ms, want >= 10 (ten 1 ms leaves)", st.BusyMS)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d on an idle scheduler", st.QueueDepth)
	}
}

func TestDeterministicSumAcrossWorkerCounts(t *testing.T) {
	// Fixed-order reduction via disjoint slots: each body writes its
	// reserved slot, the (serial) combine after For reads in index
	// order, so float rounding is identical for every worker count.
	ref := ""
	for _, workers := range []int{1, 2, 3, 8} {
		s := New(workers)
		n := 500
		out := make([]float64, n)
		s.For("t", n, func(i int) { out[i] = 1.0 / float64(i+1) })
		sum := 0.0
		for _, v := range out {
			sum += v
		}
		got := fmt.Sprintf("%.17g", sum)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("w=%d: sum %s != w=1 sum %s", workers, got, ref)
		}
		s.Close()
	}
}

func TestSpeculateRunsWhenIdle(t *testing.T) {
	s := New(2)
	defer s.Close()
	var ran atomic.Bool
	done, _ := s.Speculate("spec", func() { ran.Store(true) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("speculative call never ran on an idle scheduler")
	}
	if !ran.Load() {
		t.Fatal("done closed but fn did not run")
	}
	if st := s.Stats(); st.TasksByKind["spec"] != 1 {
		t.Fatalf("kind spec = %d, want 1", st.TasksByKind["spec"])
	}
}

func TestSpeculateCancelBeforeStart(t *testing.T) {
	s := New(1)
	defer s.Close()
	// With the only core held, the speculative call must stay queued.
	release := hold(t, s)
	var ran atomic.Bool
	done, cancel := s.Speculate("spec", func() { ran.Store(true) })
	if n := specQueued(s); n != 1 {
		t.Fatalf("%d speculative calls queued with every core busy, want 1", n)
	}
	cancel()
	cancel() // idempotent
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not close done")
	}
	if n := specQueued(s); n != 0 {
		t.Fatalf("withdrawn call still queued (%d)", n)
	}
	release()
	// A later call starts on the freed core; the withdrawn one, had it
	// stayed queued, would have started first.
	later, _ := s.Speculate("spec", func() {})
	<-later
	if ran.Load() {
		t.Fatal("cancelled speculative call ran")
	}
	if st := s.Stats(); st.Completed != st.Submitted {
		t.Fatalf("submitted %d, completed %d: a withdrawn call never retired", st.Submitted, st.Completed)
	}
}

func TestSpeculateYieldsToDemandWork(t *testing.T) {
	s := New(1)
	defer s.Close()
	// Hold the only core, queue one speculative and then one demand
	// call, release: the demand call must run first even though the
	// speculative one was submitted earlier.
	release := hold(t, s)
	var mu sync.Mutex
	var order []string
	specDone, _ := s.Speculate("spec", func() {
		mu.Lock()
		order = append(order, "spec")
		mu.Unlock()
	})
	demandDone := make(chan struct{})
	go func() {
		defer close(demandDone)
		_ = s.Do(context.Background(), "demand", func(context.Context) {
			mu.Lock()
			order = append(order, "demand")
			mu.Unlock()
		})
	}()
	waitQueued(t, s, 1)
	release()
	<-demandDone
	select {
	case <-specDone:
	case <-time.After(5 * time.Second):
		t.Fatal("speculative call starved forever")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "demand" || order[1] != "spec" {
		t.Fatalf("execution order = %v, want [demand spec]", order)
	}
}

// TestCloseWithdrawsSpeculation: Close withdraws queued speculative
// calls unrun, and a later Speculate withdraws at once.
func TestCloseWithdrawsSpeculation(t *testing.T) {
	s := New(1)
	release := hold(t, s)
	var ran atomic.Int64
	queued, _ := s.Speculate("spec", func() { ran.Add(1) })
	s.Close()
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a queued speculative call pending")
	}
	release()
	late, _ := s.Speculate("spec", func() { ran.Add(1) })
	select {
	case <-late:
	case <-time.After(5 * time.Second):
		t.Fatal("Speculate on a closed scheduler was not withdrawn")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d withdrawn speculative calls ran", n)
	}
}

// TestClosedSchedulerRunsInline: a closed scheduler holds no
// goroutines and stays usable — Do runs fn on the caller under the
// core budget, For runs every body — while speculative work is
// withdrawn unrun.
func TestClosedSchedulerRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(4)
	s.Close()
	s.Close() // idempotent
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, want at most %d", n, before)
	}

	var ran atomic.Int64
	if err := s.Do(context.Background(), "t", func(context.Context) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	s.For("t", 100, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 101 {
		t.Fatalf("ran %d bodies after Close, want 101", got)
	}

	done, _ := s.Speculate("spec", func() { t.Error("speculative call ran on a closed scheduler") })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("speculative call neither ran nor was withdrawn")
	}
}

// TestConcurrentClose: Close calls racing each other (an owner's
// shutdown against a signal-driven drain) and racing Speculate must
// leave the scheduler closed with every speculative call retired.
func TestConcurrentClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := New(2)
		start := make(chan struct{})
		var wg sync.WaitGroup
		dones := make(chan (<-chan struct{}), 4)
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				s.Close()
			}()
			go func() {
				defer wg.Done()
				<-start
				done, _ := s.Speculate("spec", func() {})
				dones <- done
			}()
		}
		close(start)
		wg.Wait()
		close(dones)
		for done := range dones {
			<-done
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if !closed {
			t.Fatal("scheduler not closed after concurrent Close calls")
		}
	}
}
