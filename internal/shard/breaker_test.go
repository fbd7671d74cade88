package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// fakeClock is an injectable time source for breaker tests.
type fakeClock struct{ t atomic.Int64 }

func (f *fakeClock) now() time.Time          { return time.Unix(0, f.t.Load()) }
func (f *fakeClock) advance(d time.Duration) { f.t.Add(int64(d)) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	b := newBreaker(3, time.Second)
	b.now = clk.now
	const peer = "http://peer:1"

	// Closed: failures below threshold keep admitting.
	for i := 0; i < 2; i++ {
		if err := b.allow(peer); err != nil {
			t.Fatalf("closed allow #%d: %v", i, err)
		}
		b.report(peer, false)
	}
	// A success resets the consecutive count.
	b.report(peer, true)
	for i := 0; i < 2; i++ {
		b.report(peer, false)
	}
	if err := b.allow(peer); err != nil {
		t.Fatal("2 consecutive failures must not open a threshold-3 breaker")
	}
	// Third consecutive failure opens it.
	b.report(peer, false)
	if err := b.allow(peer); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("allow after open = %v, want ErrBreakerOpen", err)
	}
	if s := b.stats(); s.Opens != 1 || s.FastFails != 1 || len(s.Open) != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	clk.advance(time.Second)
	if err := b.allow(peer); err != nil {
		t.Fatalf("half-open probe not admitted: %v", err)
	}
	if err := b.allow(peer); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second caller admitted during half-open probe")
	}
	// Probe fails: back to open for another cooldown.
	b.report(peer, false)
	if err := b.allow(peer); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("allow after failed probe, want fast-fail")
	}
	clk.advance(time.Second)
	if err := b.allow(peer); err != nil {
		t.Fatalf("second half-open probe: %v", err)
	}
	// Probe succeeds: closed again, other peers unaffected throughout.
	b.report(peer, true)
	if err := b.allow(peer); err != nil {
		t.Fatalf("allow after recovery: %v", err)
	}
	s := b.stats()
	if s.Closes != 1 || s.Opens != 2 || s.HalfOpenProbes != 2 || len(s.Open) != 0 {
		t.Fatalf("final stats = %+v", s)
	}
	if err := b.allow("http://other:1"); err != nil {
		t.Fatal("unrelated peer affected")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Second)
	for i := 0; i < 100; i++ {
		b.report("p", false)
	}
	if err := b.allow("p"); err != nil {
		t.Fatal("disabled breaker must always allow")
	}
	if s := b.stats(); s.Enabled {
		t.Fatal("disabled breaker reports enabled")
	}
}

// TestBreakerFastFail drives a two-node cluster view whose peer
// transport is a seeded injector failing 100% of calls: after the
// threshold the breaker must fast-fail without touching the network,
// and a successful probe (injector swapped off) must close it.
func TestBreakerFastFail(t *testing.T) {
	var delivered atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delivered.Add(1)
		w.Write([]byte("{}"))
	}))
	defer peer.Close()

	inj := fault.New(42)
	inj.Enable(fault.PeerError, 1, 0)
	var faulty atomic.Bool
	faulty.Store(true)
	cl, err := New("http://self:0", []string{"http://self:0", peer.URL}, Options{
		BreakerFailures: 3,
		BreakerCooldown: 10 * time.Millisecond,
		WrapTransport: func(base http.RoundTripper) http.RoundTripper {
			withFault := inj.Transport(base)
			return roundTripFunc(func(req *http.Request) (*http.Response, error) {
				if faulty.Load() {
					return withFault.RoundTrip(req)
				}
				return base.RoundTrip(req)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, _, err := cl.FetchArtifact(ctx, peer.URL, "k"); err == nil {
			t.Fatalf("fetch #%d succeeded under 100%% peer.error", i)
		}
	}
	decisionsAtOpen := inj.Stats().Decisions[string(fault.PeerError)]
	// Breaker is now open: further calls fast-fail without reaching
	// the transport (the injector sees no new decisions).
	if _, _, _, err := cl.FetchArtifact(ctx, peer.URL, "k"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if resp, err := cl.Forward(ctx, peer.URL, http.MethodGet, "/v1/stats", nil); !errors.Is(err, ErrBreakerOpen) {
		if resp != nil {
			resp.Body.Close()
		}
		t.Fatalf("Forward err = %v, want ErrBreakerOpen", err)
	}
	if got := inj.Stats().Decisions[string(fault.PeerError)]; got != decisionsAtOpen {
		t.Fatalf("fast-fail reached the transport: %d decisions, want %d", got, decisionsAtOpen)
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("peer saw %d requests through a 100%%-error injector", n)
	}
	if s := cl.Stats().Breaker; s.FastFails < 2 || s.Opens != 1 {
		t.Fatalf("breaker stats = %+v", s)
	}

	// Heal the transport; after the cooldown the half-open probe goes
	// through and closes the circuit.
	faulty.Store(false)
	time.Sleep(15 * time.Millisecond)
	if ok, err := cl.CheckArtifact(ctx, peer.URL, "k"); err == nil && !ok {
		// 200 with empty body decodes as a check failure status-wise;
		// any non-breaker outcome is fine here.
		_ = ok
	} else if errors.Is(err, ErrBreakerOpen) {
		t.Fatal("half-open probe fast-failed after cooldown")
	}
	if s := cl.Stats().Breaker; s.Closes != 1 || len(s.Open) != 0 {
		t.Fatalf("post-recovery stats = %+v", s)
	}
	if delivered.Load() == 0 {
		t.Fatal("healed transport never reached the peer")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
