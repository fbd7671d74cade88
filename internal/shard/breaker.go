package shard

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by peer calls fast-failed because the
// target's circuit breaker is open. Callers treat it like a transport
// error — fall back to the replica or local compute — but it costs no
// connection attempt, which is the point: between prober rounds
// (seconds apart) a dead peer would otherwise eat a dial timeout per
// request.
var ErrBreakerOpen = errors.New("shard: circuit breaker open")

// FallbackBreaker: the owner's breaker was open, so the forward was
// fast-failed without a connection attempt.
const FallbackBreaker FallbackReason = "breaker"

// Breaker state machine per peer: closed (normal) → open after
// BreakerFailures consecutive transport/5xx failures → half-open
// after BreakerCooldown, admitting exactly one probe call whose
// outcome closes or re-opens the circuit. It complements the health
// prober: the prober reshapes the ring on a seconds cadence, the
// breaker reacts within a handful of failed requests.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type peerCircuit struct {
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

type breaker struct {
	threshold int // consecutive failures to open; <= 0 disables
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu    sync.Mutex
	peers map[string]*peerCircuit

	opens          uint64
	closes         uint64
	fastFails      uint64
	halfOpenProbes uint64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		peers:     make(map[string]*peerCircuit),
	}
}

// allow reports whether a call to node may proceed. ErrBreakerOpen
// means fast-fail now.
func (b *breaker) allow(node string) error {
	if b == nil || b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peers[node]
	if p == nil || p.state == breakerClosed {
		return nil
	}
	if p.state == breakerOpen && b.now().Sub(p.openedAt) >= b.cooldown {
		p.state = breakerHalfOpen
		p.probing = false
	}
	if p.state == breakerHalfOpen && !p.probing {
		// Admit exactly one probe; everyone else keeps fast-failing
		// until its outcome is in.
		p.probing = true
		b.halfOpenProbes++
		return nil
	}
	b.fastFails++
	return ErrBreakerOpen
}

// report records the outcome of a call allowed through to node.
// ok=false means a transport error or 5xx.
func (b *breaker) report(node string, ok bool) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peers[node]
	if p == nil {
		if ok {
			return
		}
		p = &peerCircuit{}
		b.peers[node] = p
	}
	if ok {
		if p.state != breakerClosed {
			b.closes++
		}
		p.state = breakerClosed
		p.fails = 0
		p.probing = false
		return
	}
	switch p.state {
	case breakerHalfOpen:
		// The probe failed: back to open for another cooldown.
		p.state = breakerOpen
		p.openedAt = b.now()
		p.probing = false
		b.opens++
	case breakerClosed:
		p.fails++
		if p.fails >= b.threshold {
			p.state = breakerOpen
			p.openedAt = b.now()
			b.opens++
		}
	}
	// Already open: nothing to do (a racing in-flight call failed).
}

// forget drops a peer's circuit (on membership removal).
func (b *breaker) forget(node string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	delete(b.peers, node)
	b.mu.Unlock()
}

// BreakerStats is the circuit-breaker view under shard.breaker in
// /v1/stats.
type BreakerStats struct {
	// Enabled reports whether the breaker is active (threshold > 0).
	Enabled bool `json:"enabled"`
	// Opens counts closed/half-open → open transitions; Closes counts
	// recoveries to closed; FastFails counts calls shed without a
	// connection attempt; HalfOpenProbes counts probe calls admitted
	// while half-open.
	Opens          uint64 `json:"opens" metric:"spmt_breaker_opens_total" help:"Peer circuits opened after consecutive failures."`
	Closes         uint64 `json:"closes" metric:"spmt_breaker_closes_total" help:"Peer circuits closed by a successful half-open probe."`
	FastFails      uint64 `json:"fast_fails" metric:"spmt_breaker_fast_fails_total" help:"Peer calls fast-failed by an open circuit."`
	HalfOpenProbes uint64 `json:"half_open_probes" metric:"spmt_breaker_half_open_probes_total" help:"Trial calls admitted by half-open circuits."`
	// Open lists peers whose circuit is currently open or half-open.
	Open []string `json:"open,omitempty" metric:"spmt_breaker_open_circuits" help:"Peer circuits currently open."`
}

func (b *breaker) stats() BreakerStats {
	if b == nil || b.threshold <= 0 {
		return BreakerStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerStats{
		Enabled:        true,
		Opens:          b.opens,
		Closes:         b.closes,
		FastFails:      b.fastFails,
		HalfOpenProbes: b.halfOpenProbes,
	}
	for node, p := range b.peers {
		if p.state != breakerClosed {
			s.Open = append(s.Open, node)
		}
	}
	sort.Strings(s.Open)
	return s
}
