// Package admit is the server's cost-tiered admission gate: a
// weighted concurrency limiter with a bounded, deadline-aware FIFO
// wait queue in front of cold computes. Requests that resolve from
// the artifact store never touch the gate (the server checks
// Engine.Peek first and calls NoteBypass), so an overloaded node
// keeps serving cached traffic flat-out while shedding new compute
// with 429 + Retry-After instead of queueing unboundedly and OOMing.
//
// Semantics:
//
//   - A request of weight w (≈ how many engine jobs it will pin)
//     admits immediately when w units are free and nobody is queued.
//   - Otherwise it waits, FIFO, for at most min(MaxWait, its own
//     deadline). Grants respect arrival order — a heavy request at
//     the head is not starved by light ones slipping past it.
//   - Rejections are immediate (never queued) when the queue is full
//     or the caller's deadline already expired; waits that time out
//     or get cancelled also reject. Every rejection path is cheap and
//     allocation-light: refusal must stay cheaper than the work
//     refused, the same bargain the paper's squash path makes.
package admit

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// Rejection sentinels. The server maps all of them to 429 (the
// request was well-formed; the node is shedding) and sets Retry-After
// from RetryAfter.
var (
	// ErrSaturated: the wait queue is full. The node is overloaded
	// beyond what queueing can absorb.
	ErrSaturated = errors.New("admit: saturated (queue full)")
	// ErrDeadline: the caller's deadline has already expired, or is
	// too close to plausibly cover queue wait + compute.
	ErrDeadline = errors.New("admit: deadline cannot be met")
	// ErrWaitTimeout: the request queued for MaxWait (or its own
	// deadline) without a slot freeing up.
	ErrWaitTimeout = errors.New("admit: timed out waiting for capacity")
)

// Options configures a Gate. Zero values select the documented
// defaults.
type Options struct {
	// Capacity is the number of concurrent weight units (≈ engine
	// jobs) the gate admits. <= 0 means 8.
	Capacity int
	// QueueLimit bounds how many requests may wait. <= 0 means
	// 4*Capacity.
	QueueLimit int
	// MaxWait bounds how long one request may wait for capacity
	// before being shed. <= 0 means 2s.
	MaxWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 8
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 4 * o.Capacity
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Second
	}
	return o
}

// waiter is one queued request. ready is closed (with granted=true)
// by the releaser that hands it capacity; the waiter removes itself
// under mu on timeout/cancel, and whichever side flips granted first
// wins — a grant that races an abandon is returned to the pool by the
// abandoning side.
type waiter struct {
	weight  int
	ready   chan struct{}
	granted bool
	elem    *list.Element
}

// Gate is a weighted admission gate. The zero value is not usable;
// call NewGate. A nil *Gate admits everything (methods are nil-safe),
// which is how the library default stays "no gate" while the binary
// opts in.
type Gate struct {
	opts Options

	mu      sync.Mutex
	inUse   int
	waiters list.List // of *waiter, FIFO

	// Counters (under mu; read via Stats).
	admitted         uint64
	bypassed         uint64
	rejectedFull     uint64
	rejectedDeadline uint64
	rejectedWait     uint64
	canceled         uint64
}

// NewGate builds a gate with the given options.
func NewGate(o Options) *Gate {
	return &Gate{opts: o.withDefaults()}
}

// Acquire admits a request of the given weight, blocking in the
// bounded FIFO queue if needed. On success it returns a release
// function that MUST be called exactly once when the request's
// compute finishes. On failure the error is one of the package
// sentinels and nothing needs releasing.
//
// Weights are clamped to [1, Capacity] so a single huge batch can
// still ever be admitted (it just needs the whole gate to itself).
func (g *Gate) Acquire(ctx context.Context, weight int) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	if weight > g.opts.Capacity {
		weight = g.opts.Capacity
	}

	wait := g.opts.MaxWait
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			g.mu.Lock()
			g.rejectedDeadline++
			g.mu.Unlock()
			return nil, ErrDeadline
		}
		if remaining < wait {
			wait = remaining
		}
	}

	g.mu.Lock()
	if g.waiters.Len() == 0 && g.inUse+weight <= g.opts.Capacity {
		g.inUse += weight
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(weight), nil
	}
	if g.waiters.Len() >= g.opts.QueueLimit {
		g.rejectedFull++
		g.mu.Unlock()
		return nil, ErrSaturated
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	w.elem = g.waiters.PushBack(w)
	g.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		g.mu.Lock()
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(weight), nil
	case <-timer.C:
		if g.abandon(w) {
			g.mu.Lock()
			g.rejectedWait++
			g.mu.Unlock()
			return nil, ErrWaitTimeout
		}
		// Granted in the race window: keep the slot.
		g.mu.Lock()
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(weight), nil
	case <-ctx.Done():
		if g.abandon(w) {
			g.mu.Lock()
			g.canceled++
			g.mu.Unlock()
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, ErrDeadline
			}
			return nil, ctx.Err()
		}
		g.mu.Lock()
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(weight), nil
	}
}

// abandon removes w from the queue if it has not been granted yet.
// Reports true when the caller successfully backed out; false means a
// grant won the race and the caller owns the capacity after all.
func (g *Gate) abandon(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	g.waiters.Remove(w.elem)
	return true
}

// releaseFunc returns the once-only release closure for a granted
// acquisition.
func (g *Gate) releaseFunc(weight int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inUse -= weight
			g.grantLocked()
			g.mu.Unlock()
		})
	}
}

// grantLocked hands freed capacity to queued waiters in FIFO order.
// Strict FIFO: stop at the first waiter that does not fit, so heavy
// requests are not starved.
func (g *Gate) grantLocked() {
	for e := g.waiters.Front(); e != nil; {
		w := e.Value.(*waiter)
		if g.inUse+w.weight > g.opts.Capacity {
			return
		}
		next := e.Next()
		g.waiters.Remove(e)
		w.granted = true
		g.inUse += w.weight
		close(w.ready)
		e = next
	}
}

// NoteBypass records a request that skipped the gate because it
// resolved from the store (warm traffic). Nil-safe.
func (g *Gate) NoteBypass() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.bypassed++
	g.mu.Unlock()
}

// Saturated reports whether the wait queue is full — the signal
// /readyz uses to tell the load balancer to back off. Nil-safe
// (a disabled gate is never saturated).
func (g *Gate) Saturated() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters.Len() >= g.opts.QueueLimit
}

// RetryAfter is the Retry-After hint (in seconds, >= 1) the server
// attaches to rejections: half the max queue wait, the expected time
// for the backlog to move. Nil-safe.
func (g *Gate) RetryAfter() int {
	if g == nil {
		return 1
	}
	secs := int((g.opts.MaxWait / 2) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Stats is a point-in-time snapshot for /metrics and /v1/stats.
type Stats struct {
	Capacity         int    `json:"capacity" metric:"spmt_admit_capacity" help:"Admission gate weighted capacity (0 = gate disabled)."`
	InUse            int    `json:"in_use" metric:"spmt_admit_in_use" help:"Weight units held by admitted computes."`
	Waiting          int    `json:"waiting" metric:"spmt_admit_waiting" help:"Requests queued for admission."`
	QueueLimit       int    `json:"queue_limit" metric:"-"`
	Admitted         uint64 `json:"admitted" metric:"spmt_admit_admitted_total" help:"Cold computes admitted through the gate."`
	Bypassed         uint64 `json:"bypassed" metric:"spmt_admit_bypassed_total" help:"Store-resolvable requests that bypassed the gate."`
	RejectedFull     uint64 `json:"rejected_full" metric:"spmt_admit_rejected_total,reason=full" help:"Requests shed by the admission gate, by cause."`
	RejectedDeadline uint64 `json:"rejected_deadline" metric:"spmt_admit_rejected_total,reason=deadline" help:"Requests shed by the admission gate, by cause."`
	RejectedWait     uint64 `json:"rejected_wait" metric:"spmt_admit_rejected_total,reason=wait" help:"Requests shed by the admission gate, by cause."`
	Canceled         uint64 `json:"canceled" metric:"spmt_admit_rejected_total,reason=canceled" help:"Requests shed by the admission gate, by cause."`
}

// Stats snapshots the gate. Nil-safe: a nil gate reports zeros.
func (g *Gate) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Capacity:         g.opts.Capacity,
		InUse:            g.inUse,
		Waiting:          g.waiters.Len(),
		QueueLimit:       g.opts.QueueLimit,
		Admitted:         g.admitted,
		Bypassed:         g.bypassed,
		RejectedFull:     g.rejectedFull,
		RejectedDeadline: g.rejectedDeadline,
		RejectedWait:     g.rejectedWait,
		Canceled:         g.canceled,
	}
}
