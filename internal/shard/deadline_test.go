package shard

import (
	"context"
	"net/http"
	"testing"
	"time"
)

func headerFor(t *testing.T, ctx context.Context) (string, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://peer/v1/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	setDeadlineHeader(ctx, req)
	vals, ok := req.Header[http.CanonicalHeaderKey(DeadlineHeader)]
	if !ok {
		return "", false
	}
	return vals[0], true
}

func TestSetDeadlineHeaderNoDeadline(t *testing.T) {
	if got, ok := headerFor(t, context.Background()); ok {
		t.Fatalf("header = %q, want absent without a deadline", got)
	}
}

func TestSetDeadlineHeaderExpiredStampsZero(t *testing.T) {
	// An already-spent budget must forward as an explicit "0" — the
	// receiver rejects it as expired. Stamping the old floor of "1"
	// would grant the next hop a fresh millisecond per hop, letting an
	// expired request ricochet through the cluster doing real work.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-10*time.Millisecond))
	defer cancel()
	if got, ok := headerFor(t, ctx); !ok || got != "0" {
		t.Fatalf("header = %q (present=%v), want \"0\" for an expired budget", got, ok)
	}
}

func TestSetDeadlineHeaderRoundsUp(t *testing.T) {
	// A live sub-millisecond budget must round UP: truncation to 0
	// would be indistinguishable from expiry, and the old floor-then-
	// clamp path conflated the two cases.
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Microsecond)
	defer cancel()
	got, ok := headerFor(t, ctx)
	if !ok || got == "0" {
		t.Fatalf("header = %q (present=%v), want >= 1ms for a live budget", got, ok)
	}
	// 2.5ms remaining must stamp 3, not truncate to 2 — each hop may
	// only shrink the budget it grants downstream by rounding, never
	// grow it past what remains... but it must also never shrink a
	// live budget to dead. Ceil is the only stamp with both
	// properties for the receiver's whole-ms contract.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2500*time.Microsecond)
	defer cancel2()
	got2, ok2 := headerFor(t, ctx2)
	if !ok2 || (got2 != "3" && got2 != "2") {
		// Scheduling delay can spend up to ~0.5ms between WithTimeout
		// and the stamp; both ceils are correct. "2" from the OLD
		// floor path is indistinguishable here, so the load-bearing
		// assertions are the expired/sub-ms cases above.
		t.Fatalf("header = %q (present=%v), want ceil of remaining ms", got2, ok2)
	}
}

// TestDeadlineStampThenAdopt runs the header's wire format end to end:
// a sender's remaining budget is stamped as the header value, and the
// receiver adopts that value as its context deadline.
func TestDeadlineStampThenAdopt(t *testing.T) {
	stamped := func(rem time.Duration) *string { v := deadlineValue(rem); return &v }
	raw := func(v string) *string { return &v }
	cases := []struct {
		name    string
		header  *string
		want    string        // the header value on the wire
		minLeft time.Duration // adopted budget lower bound; < 0: no deadline
		expired bool
	}{
		{"positive budget", stamped(2500 * time.Millisecond), "2500", 2500 * time.Millisecond, false},
		{"fractional budget rounds up", stamped(2500 * time.Microsecond), "3", 3 * time.Millisecond, false},
		{"sub-millisecond remainder", stamped(300 * time.Microsecond), "1", time.Millisecond, false},
		{"spent budget", stamped(-10 * time.Millisecond), "0", 0, true},
		{"exactly spent", stamped(0), "0", 0, true},
		{"absent header", raw(""), "", -1, false},
		{"malformed header", raw("soon"), "soon", -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if *tc.header != tc.want {
				t.Fatalf("stamped %q, want %q", *tc.header, tc.want)
			}
			before := time.Now()
			ctx, cancel := AdoptDeadline(context.Background(), *tc.header)
			dl, has := ctx.Deadline()
			if tc.minLeft < 0 {
				if has || cancel != nil {
					t.Fatalf("adopted a deadline (%v) from %q, want none", dl, *tc.header)
				}
				return
			}
			if cancel == nil || !has {
				t.Fatalf("no deadline adopted from %q", *tc.header)
			}
			defer cancel()
			if tc.expired {
				if ctx.Err() == nil {
					t.Fatalf("a spent budget adopted a live context (deadline %v)", dl)
				}
				return
			}
			if left := dl.Sub(before); left < tc.minLeft || left > tc.minLeft+time.Second {
				t.Fatalf("adopted budget %v, want %v", left, tc.minLeft)
			}
		})
	}
}
