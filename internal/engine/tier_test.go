package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedExec runs Exec under a fresh trace and returns the tier
// attribute of the exec span recorded for the job's own key.
func tracedExec(t *testing.T, ctx context.Context, e *Engine, j Job) (tier string, err error) {
	t.Helper()
	tr := obs.NewTracer("", 0, 0).Trace("tier")
	_, err = e.Exec(obs.ContextWithTrace(ctx, tr), j)
	var find func([]*obs.SpanJSON) *obs.SpanJSON
	find = func(spans []*obs.SpanJSON) *obs.SpanJSON {
		for _, sp := range spans {
			if sp.Name == "exec "+JobKind(j.Key) && sp.Attrs["key"] == j.Key {
				return sp
			}
			if got := find(sp.Children); got != nil {
				return got
			}
		}
		return nil
	}
	sp := find(tr.JSON().Roots)
	if sp == nil {
		t.Fatalf("no exec span for %q", j.Key)
	}
	return sp.Attrs["tier"], err
}

// TestExecSpanTier pins the exec span's tier attribute for every way
// Exec can resolve a key: the attribute is how a trace attributes a
// request's time to a store tier, a peer, or a computation.
func TestExecSpanTier(t *testing.T) {
	errRefused := errors.New("refused")
	cases := []struct {
		name string
		// setup builds the engine and returns the job whose traced
		// Exec is inspected, plus the context to run it under.
		setup   func(t *testing.T) (*Engine, context.Context, Job)
		want    string
		wantErr error
	}{
		{"mem", func(t *testing.T) (*Engine, context.Context, Job) {
			e := New(Options{Workers: 1})
			j := leaf("sim/mem", &blob{S: "m", Bytes: 8})
			if _, err := e.Exec(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			return e, context.Background(), j
		}, "mem", nil},
		{"disk", func(t *testing.T) (*Engine, context.Context, Job) {
			dir := t.TempDir()
			j := leaf("sim/disk", &blob{S: "d", Bytes: 8})
			first := New(Options{Workers: 1, Disk: openTestTier(t, dir, 0)})
			if _, err := first.Exec(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			first.Close()
			// A restarted engine over the same store: memory cold,
			// disk warm.
			return New(Options{Workers: 1, Disk: openTestTier(t, dir, 0)}), context.Background(), j
		}, "disk", nil},
		{"remote", func(t *testing.T) (*Engine, context.Context, Job) {
			ff := &fakeFetcher{vals: map[string]any{"sim/remote": "r"}}
			return New(Options{Workers: 1, Remote: ff}), context.Background(), leaf("sim/remote", "local")
		}, "remote", nil},
		{"deduped", func(t *testing.T) (*Engine, context.Context, Job) {
			e := New(Options{Workers: 1})
			started, release := make(chan struct{}), make(chan struct{})
			j := Job{Key: "sim/dedup", Run: func(ctx context.Context, deps []any) (any, error) {
				close(started)
				<-release
				return "v", nil
			}}
			go e.Exec(context.Background(), j) //nolint:errcheck // the leader's result is the joiner's
			<-started
			// Release the leader once the inspected call has joined (or
			// after a bound, so a regression fails on the tier instead
			// of hanging).
			go func() {
				for i := 0; i < 10000 && e.Stats().Deduped == 0; i++ {
					time.Sleep(time.Millisecond)
				}
				close(release)
			}()
			return e, context.Background(), j
		}, "deduped", nil},
		{"computed", func(t *testing.T) (*Engine, context.Context, Job) {
			return New(Options{Workers: 1}), context.Background(), leaf("sim/computed", "c")
		}, "computed", nil},
		{"rejected", func(t *testing.T) (*Engine, context.Context, Job) {
			ctx := WithComputeGate(context.Background(), func(context.Context) (func(), error) {
				return nil, errRefused
			})
			return New(Options{Workers: 1}), ctx, leaf("sim/rejected", "x")
		}, "rejected", errRefused},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ctx, j := tc.setup(t)
			t.Cleanup(e.Close)
			tier, err := tracedExec(t, ctx, e, j)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Exec error = %v, want %v", err, tc.wantErr)
			}
			if tier != tc.want {
				t.Errorf("exec span tier = %q, want %q", tier, tc.want)
			}
		})
	}
}
