package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestAsyncWriterDrainsEverything floods the queue well past its
// bound from several producers: the block-on-full policy means every
// single artifact must reach disk by the time Flush returns.
func TestAsyncWriterDrainsEverything(t *testing.T) {
	dt := openTestTier(t, t.TempDir(), 0)
	const producers, per = 4, 2*asyncQueueCap + 7
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				dt.PutAsync(fmt.Sprintf("k%d-%d", p, i), &blob{S: "v", Bytes: 1})
			}
		}(p)
	}
	wg.Wait()
	dt.Flush()
	st := dt.Stats()
	if st.Entries != producers*per {
		t.Fatalf("drained tier holds %d artifacts, want %d", st.Entries, producers*per)
	}
	if st.AsyncWrites != producers*per {
		t.Errorf("async_writes = %d, want %d", st.AsyncWrites, producers*per)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after Flush, want 0", st.QueueDepth)
	}
	if st.Flushes == 0 {
		t.Error("flush counter not recorded")
	}
}

// TestAsyncWriterDedupsQueuedKeys: a key queued but not yet written
// must not be queued twice (Add + Demote race on the same artifact).
func TestAsyncWriterDedupsQueuedKeys(t *testing.T) {
	dt := openTestTier(t, t.TempDir(), 0)
	for i := 0; i < 10; i++ {
		dt.PutAsync("same", &blob{S: "v", Bytes: 1})
	}
	dt.Flush()
	st := dt.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// At least the first call was queued; the rest were dropped as
	// resident-or-pending, so writes cannot exceed async accepts.
	if st.AsyncWrites == 0 || st.Writes > st.AsyncWrites {
		t.Errorf("async_writes = %d, writes = %d", st.AsyncWrites, st.Writes)
	}
}

// gateCodec blocks every Encode until release is closed, holding
// queued artifacts in the writer deterministically.
type gateCodec struct {
	blobCodec
	release chan struct{}
}

func (c gateCodec) Encode(v any) (string, []byte, bool, error) {
	<-c.release
	return c.blobCodec.Encode(v)
}

// TestQueuedArtifactsServeReads: an artifact accepted by PutAsync must
// be readable before its file write lands — otherwise a memory-tier
// eviction inside that window would recompute data the process still
// holds in the queue.
func TestQueuedArtifactsServeReads(t *testing.T) {
	release := make(chan struct{})
	dt, err := OpenDiskTier(t.TempDir(), 0, gateCodec{release: release})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release) // a failed check left the write gated
		}
		dt.Close()
	})
	want := &blob{S: "inflight", Bytes: 8}
	dt.PutAsync("k", want)
	v, ok := dt.Get("k")
	if !ok {
		t.Fatal("queued artifact invisible to Get")
	}
	if v != want {
		t.Fatal("queued artifact served as a different pointer")
	}
	if st := dt.Stats(); st.Hits == 0 || st.QueueDepth != 1 {
		t.Errorf("stats = %+v, want a hit with one queued write", st)
	}
	close(release)
	dt.Flush()
	if v, ok := dt.Get("k"); !ok || v.(*blob).S != "inflight" {
		t.Fatal("artifact unreadable after the write landed")
	}
	if st := dt.Stats(); st.QueueDepth != 0 || st.Writes != 1 {
		t.Errorf("stats after drain = %+v", st)
	}
}

// TestCloseDrainsAndDegradesToSync: Close must flush queued writes,
// and a PutAsync after Close must still persist (synchronously) rather
// than panic or vanish.
func TestCloseDrainsAndDegradesToSync(t *testing.T) {
	dt := openTestTier(t, t.TempDir(), 0)
	dt.PutAsync("before", &blob{S: "b", Bytes: 1})
	dt.Close()
	if !dt.Has("before") {
		t.Fatal("Close must drain the queue")
	}
	dt.Close() // idempotent
	dt.PutAsync("after", &blob{S: "a", Bytes: 1})
	if !dt.Has("after") {
		t.Fatal("PutAsync after Close must write synchronously")
	}
	dt.Flush() // no-op after Close, must not hang
	if st := dt.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue_depth = %d, want 0", st.QueueDepth)
	}
}

// TestConcurrentCloseWaitsForDrain: when several goroutines race Close
// (ops shutdown path vs SIGTERM drain), EVERY caller must block until
// the queue has drained — a loser that returned early would tear down
// the process around a writer that is still flushing.
func TestConcurrentCloseWaitsForDrain(t *testing.T) {
	release := make(chan struct{})
	dt, err := OpenDiskTier(t.TempDir(), 0, gateCodec{release: release})
	if err != nil {
		t.Fatal(err)
	}
	dt.PutAsync("k", &blob{S: "v", Bytes: 8})
	const closers = 4
	done := make(chan struct{}, closers)
	for i := 0; i < closers; i++ {
		go func() {
			dt.Close()
			done <- struct{}{}
		}()
	}
	select {
	case <-done:
		t.Fatal("a Close returned while the queued write was still gated")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for i := 0; i < closers; i++ {
		<-done
	}
	if !dt.Has("k") {
		t.Fatal("queued write lost across concurrent Close")
	}
	if st := dt.Stats(); st.Flushes != 1 {
		t.Errorf("flushes = %d, want exactly 1 for n racing Closes", st.Flushes)
	}
}

// TestEngineCloseRacesExec: Engine.Close must be idempotent and safe
// while Exec traffic is still producing artifacts; every artifact a
// completed Exec produced must be durable once the last Close returns.
func TestEngineCloseRacesExec(t *testing.T) {
	dt := openTestTier(t, t.TempDir(), 0)
	e := New(Options{Workers: 4, Disk: dt})
	const producers, per = 8, 20
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("sim/%d-%d", p, i)
				if _, err := e.Exec(context.Background(), Job{Key: key,
					Run: func(ctx context.Context, deps []any) (any, error) {
						return &blob{S: key, Bytes: 1}, nil
					}}); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	wg.Wait()
	e.Close()
	for p := 0; p < producers; p++ {
		for i := 0; i < per; i++ {
			if key := fmt.Sprintf("sim/%d-%d", p, i); !dt.Has(key) {
				t.Fatalf("artifact %q not durable after Close", key)
			}
		}
	}
}

// waitGoroutines polls until at most n goroutines remain: stopped
// workers exit asynchronously, once they observe the close.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineCloseStopsOwnScheduler: an engine that built its own
// scheduler stops it on Close, so repeated New/Close cycles leave no
// worker goroutines behind, and a closed engine still answers Exec.
func TestEngineCloseStopsOwnScheduler(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := New(Options{Workers: 4})
		job := Job{Key: fmt.Sprintf("k%d", i), Run: func(ctx context.Context, deps []any) (any, error) {
			return &blob{S: "v", Bytes: 1}, nil
		}}
		if _, err := e.Exec(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		e.Close()
		job.Key += "-after-close"
		if v, err := e.Exec(context.Background(), job); err != nil || v.(*blob).S != "v" {
			t.Fatalf("Exec after Close = %v, %v", v, err)
		}
	}
	waitGoroutines(t, base)
}

// TestEngineCloseLeavesSharedScheduler: a scheduler passed in through
// Options.Sched belongs to the caller and keeps its workers.
func TestEngineCloseLeavesSharedScheduler(t *testing.T) {
	s := sched.New(2)
	defer s.Close()
	New(Options{Sched: s}).Close()

	// On a running scheduler Go queues fn for a worker and returns; on
	// a stopped one it would run fn inline and block here.
	release := make(chan struct{})
	defer close(release)
	g := s.NewGroup()
	queued := make(chan struct{})
	go func() {
		g.Go("t", func() { <-release })
		close(queued)
	}()
	select {
	case <-queued:
	case <-time.After(10 * time.Second):
		t.Fatal("Engine.Close stopped a scheduler it did not build")
	}
}
