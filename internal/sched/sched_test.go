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

func TestDoExternalRuns(t *testing.T) {
	s := New(2)
	defer s.Close()
	var ran atomic.Bool
	if err := s.Do(context.Background(), "t", func() { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("Do returned before fn ran")
	}
}

func TestDoInlineOnWorker(t *testing.T) {
	s := New(1)
	defer s.Close()
	// From inside a worker task, a nested Do must run inline — with
	// one worker, queuing it would deadlock.
	errc := make(chan error, 1)
	if err := s.Do(context.Background(), "outer", func() {
		errc <- s.Do(context.Background(), "inner", func() {})
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Inline != 1 {
		t.Fatalf("inline = %d, want 1", st.Inline)
	}
}

func TestDoCancelledBeforeStart(t *testing.T) {
	s := New(1)
	defer s.Close()
	// Occupy the only worker so the second Do stays queued, then
	// cancel it: fn must never run.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Do(context.Background(), "hold", func() { <-release })
	}()
	// Wait until the holder is actually running.
	deadline := time.After(5 * time.Second)
	for s.Stats().Completed == 0 && s.Stats().Submitted == 0 {
		select {
		case <-deadline:
			t.Fatal("holder never started")
		default:
			runtime.Gosched()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	err := s.Do(ctx, "late", func() { ran.Store(true) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("cancelled task ran")
	}
	close(release)
	wg.Wait()
}

func TestDoPanicPropagates(t *testing.T) {
	s := New(2)
	defer s.Close()
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
	}()
	_ = s.Do(context.Background(), "t", func() { panic("boom") })
	t.Fatal("Do returned instead of panicking")
}

func TestGroupPanicPropagates(t *testing.T) {
	s := New(2)
	defer s.Close()
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
	}()
	g := s.NewGroup()
	g.Go("t", func() { panic("boom") })
	g.Wait()
	t.Fatal("Wait returned instead of panicking")
}

func TestGroupNestedFanOut(t *testing.T) {
	// batch → sims → tiles nesting: each level forks into its own
	// group from inside a parent task, on a small pool.
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			s := New(workers)
			defer s.Close()
			var total atomic.Int64
			outer := s.NewGroup()
			for i := 0; i < 4; i++ {
				outer.Go("sim", func() {
					mid := s.NewGroup()
					for j := 0; j < 4; j++ {
						mid.Go("reach", func() {
							s.For("tile", 4, func(int) { total.Add(1) })
						})
					}
					mid.Wait()
				})
			}
			outer.Wait()
			if got := total.Load(); got != 64 {
				t.Fatalf("ran %d leaf bodies, want 64", got)
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
		s.Close()
	}
}

func TestForCommitOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		s := New(workers)
		n := 200
		var mu sync.Mutex
		var order []int
		s.ForCommit("t", n,
			func(i int) { time.Sleep(time.Duration(i%7) * time.Microsecond) },
			func(i int) { mu.Lock(); order = append(order, i); mu.Unlock() })
		if len(order) != n {
			t.Fatalf("w=%d: committed %d, want %d", workers, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("w=%d: commit[%d] = %d, want ascending order", workers, i, v)
			}
		}
		s.Close()
	}
}

func TestBlockLendsSubstitute(t *testing.T) {
	// One worker blocks on a channel that is only closed by a task
	// submitted AFTER it started blocking. Block must lend the core to
	// a substitute worker so the closer task still has a runner.
	s := New(1)
	defer s.Close()
	done := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		finished <- s.Do(context.Background(), "waiter", func() {
			_ = s.Block(context.Background(), done)
		})
	}()
	// Give the waiter time to park inside Block.
	time.Sleep(20 * time.Millisecond)
	if err := s.Do(context.Background(), "closer", func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Block never returned: no substitute covered the blocked worker")
	}
	if st := s.Stats(); st.SubstitutesSpawned == 0 {
		t.Fatal("Block on a worker did not spawn a substitute")
	}
	// The lent core has been returned; the substitute must retire at
	// its next idle moment, restoring O(workers) goroutines.
	deadline := time.After(5 * time.Second)
	for s.Stats().SubstitutesAlive > 0 {
		select {
		case <-deadline:
			t.Fatalf("substitutes never retired: %d alive", s.Stats().SubstitutesAlive)
		default:
			runtime.Gosched()
		}
	}
}

func TestBlockNoSingleflightCycle(t *testing.T) {
	// Regression for the help-while-waiting deadlock: a worker that is
	// the singleflight LEADER of key K blocks joining another key; if
	// Block helped run queued tasks it could pick up a task that joins
	// K, parking its own stack on a channel only a lower frame of that
	// same stack can close. With lend-a-substitute Block the joiner
	// runs on a substitute and everything drains.
	s := New(1)
	defer s.Close()
	kdone := make(chan struct{})  // closed when the leader finishes K
	k2done := make(chan struct{}) // the result the leader is joining
	finished := make(chan error, 1)
	go func() {
		finished <- s.Do(context.Background(), "leader", func() {
			_ = s.Block(context.Background(), k2done)
			close(kdone)
		})
	}()
	time.Sleep(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	// Submitted first: a task that joins K. A helping Block would claim
	// it and deadlock the leader on its own unfinished frame.
	go func() {
		defer wg.Done()
		_ = s.Do(context.Background(), "joiner", func() {
			_ = s.Block(context.Background(), kdone)
		})
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer wg.Done()
		_ = s.Do(context.Background(), "closer", func() { close(k2done) })
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("singleflight-style wait cycle deadlocked the pool")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("joiner or closer never finished")
	}
}

func TestBlockCancellation(t *testing.T) {
	s := New(1)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	never := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- s.Block(ctx, never) }()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Block ignored cancellation")
	}
}

func TestGoroutineCountIsOWorkers(t *testing.T) {
	// The whole point of one shared pool: a deeply nested fan-out must
	// not spawn goroutines per task. Allow slack for the runtime and
	// test harness, but 8 workers running 8×8×8 nested bodies must stay
	// far below the ~512 goroutines a pool-per-level design would open.
	before := runtime.NumGoroutine()
	s := New(8)
	defer s.Close()
	var peak atomic.Int64
	g := s.NewGroup()
	for i := 0; i < 8; i++ {
		g.Go("sim", func() {
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
	}
	g.Wait()
	if got := peak.Load(); got > int64(before)+8+16 {
		t.Fatalf("peak goroutines %d (baseline %d, 8 workers): fan-out is spawning per-task goroutines", got, before)
	}
}

func TestStatsCounts(t *testing.T) {
	s := New(2)
	defer s.Close()
	for i := 0; i < 10; i++ {
		_ = s.Do(context.Background(), "a", func() {})
	}
	s.For("b", 5, func(int) {})
	st := s.Stats()
	if st.Workers != 2 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.Submitted < 10 || st.Completed < 10 {
		t.Fatalf("submitted=%d completed=%d, want >= 10", st.Submitted, st.Completed)
	}
	if st.TasksByKind["a"] != 10 {
		t.Fatalf("kind a = %d, want 10", st.TasksByKind["a"])
	}
	if st.TasksByKind["b"] == 0 {
		t.Fatal("kind b missing")
	}
	if len(st.PerWorker) != 2 {
		t.Fatalf("per-worker len %d", len(st.PerWorker))
	}
}

func TestDeterministicSumAcrossWorkerCounts(t *testing.T) {
	// Fixed-order reduction via disjoint slots: each body writes its
	// reserved slot, the (serial) combine after Wait reads in index
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

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct schedulers")
	}
	if Default().Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS", Default().Workers())
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
		t.Fatal("speculative task never ran on an idle pool")
	}
	if !ran.Load() {
		t.Fatal("done closed but fn did not run")
	}
	st := s.Stats()
	if st.SpecSubmitted != 1 {
		t.Fatalf("SpecSubmitted = %d, want 1", st.SpecSubmitted)
	}
	if st.TasksByKind["spec"] != 1 {
		t.Fatalf("kind spec = %d, want 1", st.TasksByKind["spec"])
	}
}

func TestSpeculateCancelBeforeStart(t *testing.T) {
	s := New(1)
	defer s.Close()
	// Occupy the only worker so the speculative task stays queued.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Do(context.Background(), "hold", func() { <-release })
	}()
	for s.Stats().TasksByKind["hold"] == 0 || s.Stats().QueueDepth > 0 {
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Bool
	done, cancel := s.Speculate("spec", func() { ran.Store(true) })
	cancel()
	cancel() // idempotent
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not close done")
	}
	close(release)
	wg.Wait()
	// Let the worker pop (and drop) the withdrawn task.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SpecQueued > 0 {
		if time.Now().After(deadline) {
			t.Fatal("withdrawn task never drained from the spec queue")
		}
		time.Sleep(time.Millisecond)
	}
	if ran.Load() {
		t.Fatal("cancelled speculative task ran")
	}
}

func TestSpeculateYieldsToDemandWork(t *testing.T) {
	s := New(1)
	defer s.Close()
	// Occupy the only worker, queue one speculative and then one
	// demand task, release: the demand task must run first even though
	// the speculative one was submitted earlier.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Do(context.Background(), "hold", func() { <-release })
	}()
	for s.Stats().TasksByKind["hold"] == 0 || s.Stats().QueueDepth > 0 {
		time.Sleep(time.Millisecond)
	}
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
		_ = s.Do(context.Background(), "demand", func() {
			mu.Lock()
			order = append(order, "demand")
			mu.Unlock()
		})
	}()
	// Wait until the demand task is actually queued before releasing.
	for s.Stats().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-demandDone
	select {
	case <-specDone:
	case <-time.After(5 * time.Second):
		t.Fatal("speculative task starved forever")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "demand" || order[1] != "spec" {
		t.Fatalf("execution order = %v, want [demand spec]", order)
	}
}

func TestSpeculateNotClaimedByJoinHelper(t *testing.T) {
	s := New(2)
	defer s.Close()
	// A Group.Wait help loop passes a non-nil g to find and must never
	// claim speculative work. Pin it structurally: submit a spec task
	// that blocks until the join completes — if Wait helped it, the
	// join would deadlock on its own helper.
	joined := make(chan struct{})
	specStarted := make(chan struct{})
	done, _ := s.Speculate("spec", func() {
		close(specStarted)
		<-joined
	})
	g := s.NewGroup()
	for i := 0; i < 4; i++ {
		g.Go("t", func() { time.Sleep(5 * time.Millisecond) })
	}
	g.Wait()
	close(joined)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("speculative task never finished")
	}
}

// TestClosedSchedulerRunsInline: Close stops every worker, and the
// scheduler stays usable — external Do, Group and For work run on the
// submitting goroutine, and speculative work is withdrawn unrun.
func TestClosedSchedulerRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(4)
	s.Close()
	s.Close() // idempotent
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want at most %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	var ran atomic.Int64
	if err := s.Do(context.Background(), "t", func() { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	g := s.NewGroup()
	for i := 0; i < 3; i++ {
		g.Go("t", func() { ran.Add(1) })
	}
	g.Wait()
	s.For("t", 100, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 104 {
		t.Fatalf("ran %d bodies after Close, want 104", got)
	}

	done, _ := s.Speculate("spec", func() { t.Error("speculative task ran on a closed scheduler") })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("speculative task neither ran nor was withdrawn")
	}
}

// TestConcurrentClose: Close calls racing each other (an owner's
// shutdown against a signal-driven drain) must close the scheduler
// exactly once instead of panicking on a double channel close.
func TestConcurrentClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := New(2)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s.Close()
			}()
		}
		close(start)
		wg.Wait()
		if !s.isClosed() {
			t.Fatal("scheduler not closed after concurrent Close calls")
		}
	}
}
