// Package fault is a seeded, deterministic fault injector for the
// degradation test suite and chaos tooling. It sits behind seams the
// production code already has — the disk tier's read/write path and
// the shard transports — and never activates unless explicitly
// constructed, so the zero configuration (a nil *Injector) costs one
// nil check per seam.
//
// Determinism: every decision is a pure function of (seed, op, n)
// where n is the op's own injection counter. Two processes built with
// the same seed and the same per-op call sequence inject the same
// faults at the same points, which is what lets the degradation suite
// assert byte-level response parity instead of "it probably survived".
package fault

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Op names one injectable fault class. The set is closed: Parse
// rejects anything else so a typo in -fault-inject fails boot instead
// of silently injecting nothing.
type Op string

const (
	// DiskRead fails DiskTier loads (Get/Image) with an I/O error.
	DiskRead Op = "disk.read"
	// DiskWrite fails DiskTier persists with an I/O error.
	DiskWrite Op = "disk.write"
	// DiskTorn truncates the encoded image before it reaches disk,
	// modelling a torn write: the CRC check catches it on read.
	DiskTorn Op = "disk.torn"
	// PeerError fails a peer HTTP round trip with a transport error.
	PeerError Op = "peer.error"
	// PeerLatency delays a peer round trip by the op's param.
	PeerLatency Op = "peer.latency"
	// PeerHang blocks a peer round trip until the request context is
	// done (capped by the op's param, default 30s), then fails it.
	PeerHang Op = "peer.hang"
)

var allOps = map[Op]bool{
	DiskRead: true, DiskWrite: true, DiskTorn: true,
	PeerError: true, PeerLatency: true, PeerHang: true,
}

// rule is one configured op: a probability and an optional duration
// parameter (latency delay / hang cap).
type rule struct {
	rate  float64
	param time.Duration
	n     atomic.Uint64 // decisions taken for this op
	hits  atomic.Uint64 // decisions that injected
}

// Injector decides, deterministically, whether each operation faults.
// All methods are safe on a nil receiver (no faults) and for
// concurrent use.
type Injector struct {
	seed  uint64
	rules map[Op]*rule
}

// New builds an injector with no rules enabled; use Enable to add
// them. Mostly useful in tests — production config goes through Parse.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rules: make(map[Op]*rule)}
}

// Enable sets op to inject with the given probability in [0,1] and
// optional duration parameter.
func (in *Injector) Enable(op Op, rate float64, param time.Duration) {
	in.rules[op] = &rule{rate: rate, param: param}
}

// Parse builds an injector from a comma-separated spec of
// op:rate[:param] clauses, e.g.
//
//	disk.read:0.2,peer.latency:0.5:100ms
//
// Rates are probabilities in [0,1]; params are Go durations. An empty
// spec yields a nil injector (no faults).
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: bad clause %q (want op:rate[:param])", clause)
		}
		op := Op(parts[0])
		if !allOps[op] {
			return nil, fmt.Errorf("fault: unknown op %q", parts[0])
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("fault: bad rate %q for %s (want 0..1)", parts[1], op)
		}
		var param time.Duration
		if len(parts) == 3 {
			param, err = time.ParseDuration(parts[2])
			if err != nil || param < 0 {
				return nil, fmt.Errorf("fault: bad param %q for %s", parts[2], op)
			}
		}
		if _, dup := in.rules[op]; dup {
			return nil, fmt.Errorf("fault: duplicate op %s", op)
		}
		in.rules[op] = &rule{rate: rate, param: param}
	}
	return in, nil
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash of
// the decision index so rate comparisons see uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func opHash(op Op) uint64 {
	h := fnv.New64a()
	h.Write([]byte(op))
	return h.Sum64()
}

// decide consumes one decision for op and reports whether it injects.
// Returns the rule only when it fires.
func (in *Injector) decide(op Op) (*rule, bool) {
	if in == nil {
		return nil, false
	}
	r, ok := in.rules[op]
	if !ok || r.rate <= 0 {
		return nil, false
	}
	n := r.n.Add(1) - 1
	if r.rate < 1 {
		u := splitmix64(in.seed ^ opHash(op) ^ n)
		// Top 53 bits → uniform float64 in [0,1).
		if float64(u>>11)/(1<<53) >= r.rate {
			return nil, false
		}
	}
	r.hits.Add(1)
	return r, true
}

// Error is the sentinel wrapped into every injected failure, so tests
// and logs can tell an injected fault from a real one.
type Error struct{ Op Op }

func (e *Error) Error() string { return "fault: injected " + string(e.Op) }

// ReadError implements the disk-tier read seam: a non-nil error means
// this load must fail as if the file were unreadable.
func (in *Injector) ReadError(key string) error {
	if _, hit := in.decide(DiskRead); hit {
		return &Error{Op: DiskRead}
	}
	return nil
}

// WriteError implements the disk-tier write seam.
func (in *Injector) WriteError(key string) error {
	if _, hit := in.decide(DiskWrite); hit {
		return &Error{Op: DiskWrite}
	}
	return nil
}

// MangleImage implements the torn-write seam: given the encoded bytes
// about to be persisted, it may return a truncated copy. The disk
// tier writes whatever comes back; the CRC in the artifact header is
// what detects the tear on the next read.
func (in *Injector) MangleImage(key string, img []byte) []byte {
	if _, hit := in.decide(DiskTorn); hit && len(img) > 1 {
		return img[:1+len(img)*3/4]
	}
	return img
}

// Transport wraps base so peer round trips are subject to peer.*
// rules. A nil receiver returns base unchanged.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if in == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{in: in, base: base}
}

type faultTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if r, hit := t.in.decide(PeerLatency); hit {
		d := r.param
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if r, hit := t.in.decide(PeerHang); hit {
		cap := r.param
		if cap <= 0 {
			cap = 30 * time.Second
		}
		timer := time.NewTimer(cap)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
		}
		return nil, &Error{Op: PeerHang}
	}
	if _, hit := t.in.decide(PeerError); hit {
		return nil, &Error{Op: PeerError}
	}
	return t.base.RoundTrip(req)
}

// Stats is a point-in-time injection census for /metrics and
// /v1/stats.
type Stats struct {
	Seed uint64 `json:"seed" metric:"-"`
	// Decisions counts, per op, the opportunities seen; Injected the
	// faults injected.
	Decisions map[string]uint64 `json:"decisions" metric:"spmt_fault_decisions_total,op" help:"Fault-injection coin flips by operation."`
	Injected  map[string]uint64 `json:"injected" metric:"spmt_fault_injected_total,op" help:"Faults actually injected by operation."`
}

// Stats snapshots the injector. Nil-safe: a nil injector reports a
// zero Stats with nil maps.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	s := Stats{Seed: in.seed, Decisions: map[string]uint64{}, Injected: map[string]uint64{}}
	for op, r := range in.rules {
		s.Decisions[string(op)] = r.n.Load()
		s.Injected[string(op)] = r.hits.Load()
	}
	return s
}

// Gate is a tiny helper for tests that want to block until the
// injector has made at least n decisions for op — e.g. "wait until the
// transport actually saw traffic". It polls; fine for tests only.
func (in *Injector) Gate(ctx context.Context, op Op, n uint64) error {
	if in == nil {
		return nil
	}
	r, ok := in.rules[op]
	if !ok {
		return fmt.Errorf("fault: op %s not enabled", op)
	}
	for r.n.Load() < n {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}
