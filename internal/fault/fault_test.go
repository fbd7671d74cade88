package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFaultParse(t *testing.T) {
	in, err := Parse("disk.read:0.25,peer.latency:1:20ms,peer.error:0", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 3 {
		t.Fatalf("rules = %v, want 3 entries", in.rules)
	}
	if in.rules[PeerLatency].param != 20*time.Millisecond {
		t.Fatalf("latency param = %v", in.rules[PeerLatency].param)
	}
	if in2, err := Parse("", 7); err != nil || in2 != nil {
		t.Fatalf("empty spec: %v %v, want nil nil", in2, err)
	}
	for _, bad := range []string{
		"disk.read",                   // no rate
		"nope:0.5",                    // unknown op
		"disk.read:2",                 // rate out of range
		"disk.read:x",                 // rate not a number
		"peer.latency:1:zzz",          // bad duration
		"disk.read:0.5,disk.read:0.5", // duplicate
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestFaultDeterminism: two injectors with the same seed and call
// sequence make identical decisions; a different seed diverges.
func TestFaultDeterminism(t *testing.T) {
	const n = 2000
	run := func(seed uint64) []bool {
		in, err := Parse("disk.read:0.3", seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = in.ReadError("k") != nil
		}
		return out
	}
	a, b, c := run(42), run(42), run(43)
	hits := 0
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
		if a[i] != c[i] {
			diverged = true
		}
		if a[i] {
			hits++
		}
	}
	if !diverged {
		t.Fatal("different seeds made identical decisions")
	}
	// Rate 0.3 over 2000 decisions: expect roughly 600, allow wide slack.
	if hits < 400 || hits > 800 {
		t.Fatalf("hits = %d for rate 0.3 over %d decisions", hits, n)
	}
	st, _ := Parse("disk.read:0.3", 42)
	for i := 0; i < n; i++ {
		st.ReadError("k")
	}
	stats := st.Stats()
	if stats.Decisions["disk.read"] != n || stats.Injected["disk.read"] != uint64(hits) {
		t.Fatalf("stats = %+v, want decisions=%d injected=%d", stats, n, hits)
	}
}

func TestFaultNilInjector(t *testing.T) {
	var in *Injector
	if err := in.ReadError("k"); err != nil {
		t.Fatal(err)
	}
	if err := in.WriteError("k"); err != nil {
		t.Fatal(err)
	}
	img := []byte("hello")
	if got := in.MangleImage("k", img); string(got) != "hello" {
		t.Fatalf("MangleImage = %q", got)
	}
	base := http.DefaultTransport
	if got := in.Transport(base); got != base {
		t.Fatal("nil injector should return base transport unchanged")
	}
	if s := in.Stats(); s.Seed != 0 || s.Decisions != nil {
		t.Fatalf("nil stats = %+v", s)
	}
}

func TestFaultTornWrite(t *testing.T) {
	in := New(1)
	in.Enable(DiskTorn, 1, 0)
	img := []byte(strings.Repeat("x", 100))
	got := in.MangleImage("k", img)
	if len(got) >= len(img) || len(got) == 0 {
		t.Fatalf("torn image len = %d, want 0 < len < %d", len(got), len(img))
	}
}

func TestFaultTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	t.Run("error", func(t *testing.T) {
		in := New(1)
		in.Enable(PeerError, 1, 0)
		c := &http.Client{Transport: in.Transport(nil)}
		_, err := c.Get(srv.URL)
		var fe *Error
		if !errors.As(err, &fe) || fe.Op != PeerError {
			t.Fatalf("err = %v, want injected peer.error", err)
		}
	})
	t.Run("latency", func(t *testing.T) {
		in := New(1)
		in.Enable(PeerLatency, 1, 30*time.Millisecond)
		c := &http.Client{Transport: in.Transport(nil)}
		start := time.Now()
		resp, err := c.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if d := time.Since(start); d < 30*time.Millisecond {
			t.Fatalf("round trip took %v, want >= 30ms", d)
		}
	})
	t.Run("hang respects context", func(t *testing.T) {
		in := New(1)
		in.Enable(PeerHang, 1, time.Minute)
		c := &http.Client{Transport: in.Transport(nil)}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		start := time.Now()
		_, err := c.Do(req)
		if err == nil {
			t.Fatal("hang returned no error")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("hang ignored context cancellation (%v)", d)
		}
	})
}
