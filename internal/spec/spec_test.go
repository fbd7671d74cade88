package spec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPredictorLearnsTransitions(t *testing.T) {
	p := NewPredictor(8, 4)
	p.Observe("a", "b", "pb")
	p.Observe("a", "b", "pb")
	p.Observe("a", "c", "pc")
	got := p.Predict("a")
	if len(got) != 2 {
		t.Fatalf("predictions = %d, want 2", len(got))
	}
	if got[0].Key != "b" || got[0].Count != 2 || got[0].Payload != "pb" {
		t.Fatalf("strongest = %+v, want b/2/pb", got[0])
	}
	if got[1].Key != "c" || got[1].Count != 1 {
		t.Fatalf("second = %+v, want c/1", got[1])
	}
	if p.Predict("b") != nil {
		t.Fatal("b has no successors, want nil")
	}
}

func TestPredictorIgnoresDegenerate(t *testing.T) {
	p := NewPredictor(8, 4)
	p.Observe("", "b", nil)
	p.Observe("a", "", nil)
	p.Observe("a", "a", nil)
	if st := p.Stats(); st.Observations != 0 || st.States != 0 {
		t.Fatalf("degenerate observations recorded: %+v", st)
	}
}

func TestPredictorTieBreakDeterministic(t *testing.T) {
	p := NewPredictor(8, 4)
	p.Observe("a", "z", nil)
	p.Observe("a", "b", nil)
	got := p.Predict("a")
	if got[0].Key != "b" || got[1].Key != "z" {
		t.Fatalf("equal-count order = [%s %s], want key-ascending [b z]", got[0].Key, got[1].Key)
	}
}

func TestPredictorBoundsStates(t *testing.T) {
	p := NewPredictor(2, 4)
	p.Observe("s1", "x", nil)
	p.Observe("s2", "x", nil)
	p.Observe("s3", "x", nil) // evicts s1 (LRU)
	if p.Predict("s1") != nil {
		t.Fatal("s1 should have been evicted")
	}
	if p.Predict("s2") == nil || p.Predict("s3") == nil {
		t.Fatal("s2/s3 should survive")
	}
	if st := p.Stats(); st.States != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 states / 1 eviction", st)
	}
}

func TestPredictorBoundsSuccessorsReplacesWeakest(t *testing.T) {
	p := NewPredictor(8, 2)
	p.Observe("a", "b", nil)
	p.Observe("a", "b", nil)
	p.Observe("a", "c", nil)
	p.Observe("a", "d", nil) // replaces c (count 1 < b's 2)
	got := p.Predict("a")
	if len(got) != 2 {
		t.Fatalf("successors = %d, want 2", len(got))
	}
	if got[0].Key != "b" || got[1].Key != "d" {
		t.Fatalf("successors = [%s %s], want [b d]", got[0].Key, got[1].Key)
	}
}

// syncSubmit runs fn on a fresh goroutine immediately — a stand-in for
// the scheduler's idle-only class in unit tests.
func syncSubmit(fn func()) (<-chan struct{}, func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done, func() {}
}

func waitStats(t *testing.T, sp *Speculator, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sp.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never met; stats = %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSpeculatorLaunchesAndScoresHits(t *testing.T) {
	var launched atomic.Uint64
	sp := NewSpeculator(Options{
		Submit: syncSubmit,
		Launch: func(ctx context.Context, p Prediction) (int64, error) {
			launched.Add(1)
			return 100, nil
		},
	})
	defer sp.Close()
	sp.Enqueue([]Prediction{{Key: "k1"}, {Key: "k2"}})
	st := waitStats(t, sp, func(s Stats) bool { return s.Launches == 2 })
	if st.Predictions != 2 || st.WastedBytes != 200 {
		t.Fatalf("stats = %+v, want 2 predictions / 200 wasted", st)
	}
	if !sp.MarkDemand("k1") {
		t.Fatal("demand for launched k1 should score a hit")
	}
	if sp.MarkDemand("k1") {
		t.Fatal("a hit is scored once")
	}
	if sp.MarkDemand("never") {
		t.Fatal("unlaunched key cannot hit")
	}
	st = sp.Stats()
	if st.Hits != 1 || st.WastedBytes != 100 {
		t.Fatalf("stats = %+v, want 1 hit / 100 wasted", st)
	}
	if want := 0.5; st.Accuracy != want {
		t.Fatalf("accuracy = %v, want %v", st.Accuracy, want)
	}
}

func TestSpeculatorDedupesLaunchedKeys(t *testing.T) {
	sp := NewSpeculator(Options{
		Submit: syncSubmit,
		Launch: func(ctx context.Context, p Prediction) (int64, error) { return 1, nil },
	})
	defer sp.Close()
	sp.Enqueue([]Prediction{{Key: "k"}})
	waitStats(t, sp, func(s Stats) bool { return s.Launches == 1 })
	sp.Enqueue([]Prediction{{Key: "k"}})
	st := waitStats(t, sp, func(s Stats) bool { return s.Predictions == 2 && s.QueueDepth == 0 })
	if st.Launches != 1 {
		t.Fatalf("launches = %d, want 1 (relaunch of a tracked key)", st.Launches)
	}
}

func TestSpeculatorPausedWithdraws(t *testing.T) {
	paused := atomic.Bool{}
	paused.Store(true)
	sp := NewSpeculator(Options{
		Submit: syncSubmit,
		Paused: paused.Load,
		Launch: func(ctx context.Context, p Prediction) (int64, error) {
			t.Error("launched while paused")
			return 0, nil
		},
	})
	defer sp.Close()
	sp.Enqueue([]Prediction{{Key: "k"}})
	st := waitStats(t, sp, func(s Stats) bool { return s.Withdrawn == 1 })
	if st.Launches != 0 {
		t.Fatalf("launches = %d, want 0", st.Launches)
	}
}

func TestSpeculatorIneligibleSkips(t *testing.T) {
	sp := NewSpeculator(Options{
		Submit:   syncSubmit,
		Eligible: func(string) bool { return false },
		Launch: func(ctx context.Context, p Prediction) (int64, error) {
			t.Error("launched an ineligible key")
			return 0, nil
		},
	})
	defer sp.Close()
	sp.Enqueue([]Prediction{{Key: "k"}})
	waitStats(t, sp, func(s Stats) bool { return s.Skipped == 1 })
}

// TestSpeculatorLaunchErrorCounted: a launch that fails — by error
// or by panicking on its own goroutine — counts as an error, charges
// no bytes and scores no hit.
func TestSpeculatorLaunchErrorCounted(t *testing.T) {
	for name, launch := range map[string]func(context.Context, Prediction) (int64, error){
		"error": func(context.Context, Prediction) (int64, error) { return 0, errors.New("boom") },
		"panic": func(context.Context, Prediction) (int64, error) { panic("boom") },
	} {
		t.Run(name, func(t *testing.T) {
			sp := NewSpeculator(Options{Submit: syncSubmit, Launch: launch})
			defer sp.Close()
			sp.Enqueue([]Prediction{{Key: "k"}})
			st := waitStats(t, sp, func(s Stats) bool { return s.Errors == 1 })
			if st.WastedBytes != 0 {
				t.Fatalf("failed launch charged %d wasted bytes", st.WastedBytes)
			}
			if sp.MarkDemand("k") {
				t.Fatal("failed launch must not score hits")
			}
		})
	}
}

func TestSpeculatorQueueBoundDrops(t *testing.T) {
	block := make(chan struct{})
	sp := NewSpeculator(Options{
		QueueLimit: 1,
		Submit:     syncSubmit,
		Launch: func(ctx context.Context, p Prediction) (int64, error) {
			<-block
			return 1, nil
		},
	})
	defer func() {
		close(block)
		sp.Close()
	}()
	// First prediction dequeues into the (blocked) launch; the queue
	// then holds one and sheds the rest.
	var preds []Prediction
	for i := 0; i < 8; i++ {
		preds = append(preds, Prediction{Key: fmt.Sprintf("k%d", i)})
	}
	sp.Enqueue(preds)
	st := waitStats(t, sp, func(s Stats) bool { return s.Dropped >= 6 })
	if st.Predictions != 8 {
		t.Fatalf("predictions = %d, want 8", st.Predictions)
	}
}

func TestSpeculatorCloseCancelsContext(t *testing.T) {
	started := make(chan struct{})
	finished := make(chan struct{})
	sp := NewSpeculator(Options{
		Submit: syncSubmit,
		Launch: func(ctx context.Context, p Prediction) (int64, error) {
			close(started)
			<-ctx.Done()
			close(finished)
			return 0, ctx.Err()
		},
	})
	sp.Enqueue([]Prediction{{Key: "k"}})
	<-started
	sp.Close()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the launch context")
	}
}
