// Package obs is the zero-dependency observability layer threaded
// through the server, shard, engine, and store: request tracing
// (bounded in-memory ring of span trees, propagated across shard hops
// via the X-Spmt-Trace header) and hand-rolled Prometheus text
// exposition (metrics.go).
//
// The hard invariant of the whole package: observing a request must
// never change its response bytes. Spans live in headers, side
// endpoints (/v1/traces), and process memory only; every instrument
// is safe to call with tracing disabled (a nil *Span is a no-op), so
// instrumented code paths stay byte-identical to uninstrumented ones.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader carries the trace ID on /v1 requests and responses, and
// on every intra-cluster hop (proxy, batch fan-out, artifact fetch,
// stats fan-out), so one client request stitches into one cluster-wide
// trace.
const TraceHeader = "X-Spmt-Trace"

// Defaults for NewTracer(_, 0, 0).
const (
	DefaultTraceCapacity = 128
	DefaultMaxSpans      = 512
)

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID
		// still traces, it just collides with other zero IDs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether s is acceptable as a client-supplied trace
// ID: short and shell/log-safe, so arbitrary header values can neither
// bloat the ring's key space nor smuggle control bytes into logs.
func ValidID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Attr is one span attribute. A slice of Attrs (not a map) keeps the
// record order deterministic and allocation cheap.
type Attr struct {
	Key, Value string
}

// A returns an Attr (shorthand for literals at call sites).
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// spanRec is one completed span as stored in a Trace.
type spanRec struct {
	id     uint32
	parent uint32
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Trace accumulates the spans of one traced request (across however
// many jobs and goroutines serve it on this node). Spans are recorded
// on End; the per-trace span count is bounded, with overflow counted
// rather than stored.
type Trace struct {
	id   string
	node string

	mu       sync.Mutex
	nextSpan uint32
	spans    []spanRec
	dropped  uint64
	maxSpans int
	created  time.Time
	tracer   *Tracer
}

// ID returns the trace ID (as propagated in TraceHeader).
func (tr *Trace) ID() string { return tr.id }

// record appends one completed span, honouring the span budget.
func (tr *Trace) record(rec spanRec) {
	tr.mu.Lock()
	if len(tr.spans) >= tr.maxSpans {
		tr.dropped++
		tr.mu.Unlock()
		if tr.tracer != nil {
			tr.tracer.noteDropped()
		}
		return
	}
	tr.spans = append(tr.spans, rec)
	tr.mu.Unlock()
}

// Span is one in-flight span. A nil Span (no active trace in the
// context) is valid and every method on it is a no-op, so
// instrumentation sites need no conditionals.
type Span struct {
	tr     *Trace
	id     uint32
	parent uint32
	name   string
	start  time.Time
	mu     sync.Mutex
	attrs  []Attr
	ended  bool
}

// Active reports whether the span records anywhere (i.e. a trace is
// live on this request path). Use it to skip work that exists only to
// enrich the span.
func (s *Span) Active() bool { return s != nil && s.tr != nil }

// SetAttr attaches or overwrites one attribute.
func (s *Span) SetAttr(key, value string) {
	if !s.Active() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span and records it into its trace. Idempotent.
func (s *Span) End() {
	if !s.Active() {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tr.record(spanRec{
		id:     s.id,
		parent: s.parent,
		name:   s.name,
		start:  s.start,
		dur:    time.Since(s.start),
		attrs:  attrs,
	})
}

// ctxKey carries the active trace + parent span ID through a request's
// context.
type ctxKey struct{}

type ctxVal struct {
	tr     *Trace
	spanID uint32
}

// ContextWithTrace roots a trace in the context: spans started under
// the returned context parent to the trace's root (span ID 0).
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr})
}

// TraceIDFrom returns the active trace's ID, or "" when the context is
// untraced — the value a peer hop writes into TraceHeader.
func TraceIDFrom(ctx context.Context) string {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.tr.id
	}
	return ""
}

// StartSpan opens a span under the context's active trace and returns
// it with a derived context that parents nested spans to it. With no
// active trace it returns (nil, ctx) — zero cost beyond the context
// lookup, and the nil Span's methods are no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (*Span, context.Context) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return nil, ctx
	}
	tr := v.tr
	tr.mu.Lock()
	tr.nextSpan++
	id := tr.nextSpan
	tr.mu.Unlock()
	s := &Span{
		tr:     tr,
		id:     id,
		parent: v.spanID,
		name:   name,
		start:  time.Now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	return s, context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr, spanID: id})
}

// TracerStats is a point-in-time snapshot of tracer activity.
type TracerStats struct {
	// Started counts traces created (fresh IDs and adopted peer IDs).
	Started uint64 `json:"started" metric:"spmt_traces_started_total" help:"Traces created (fresh and adopted IDs)."`
	// SpansDropped counts spans discarded because their trace hit the
	// per-trace span budget.
	SpansDropped uint64 `json:"spans_dropped" metric:"spmt_trace_spans_dropped_total" help:"Spans discarded over the per-trace budget."`
	// Resident is the number of traces currently held in the ring.
	Resident int `json:"resident" metric:"spmt_traces_resident" help:"Traces held in the ring."`
}

// Tracer owns the bounded ring of recent traces on one node.
type Tracer struct {
	node     string
	capacity int
	maxSpans int

	mu      sync.Mutex
	byID    map[string]*Trace
	order   []string // creation order; front = oldest
	started uint64
	dropped uint64
}

// NewTracer builds a tracer. node names this process in stitched
// cross-node traces (the shard self URL in peer mode, "" standalone);
// capacity bounds the trace ring and maxSpans the spans kept per trace
// (<= 0 selects the defaults).
func NewTracer(node string, capacity, maxSpans int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{
		node:     node,
		capacity: capacity,
		maxSpans: maxSpans,
		byID:     make(map[string]*Trace),
	}
}

// Node returns the tracer's node name.
func (t *Tracer) Node() string { return t.node }

// Trace returns the trace under id, creating it if absent (evicting
// the oldest trace when the ring is full). An empty or invalid id gets
// a fresh one. Requests forwarded across the cluster under one ID all
// land in the same Trace on each node, which is what lets the entry
// node stitch the pieces back together.
func (t *Tracer) Trace(id string) *Trace {
	if !ValidID(id) {
		id = NewID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.byID[id]; ok {
		return tr
	}
	for len(t.order) >= t.capacity {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, oldest)
	}
	tr := &Trace{id: id, node: t.node, maxSpans: t.maxSpans, created: time.Now(), tracer: t}
	t.byID[id] = tr
	t.order = append(t.order, id)
	t.started++
	return tr
}

// Lookup returns the trace under id without creating one.
func (t *Tracer) Lookup(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	return tr, ok
}

// Stats snapshots the tracer counters.
func (t *Tracer) Stats() TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{Started: t.started, SpansDropped: t.dropped, Resident: len(t.byID)}
}

func (t *Tracer) noteDropped() {
	t.mu.Lock()
	t.dropped++
	t.mu.Unlock()
}

// Recent returns summaries of up to limit traces, newest first.
func (t *Tracer) Recent(limit int) []TraceSummary {
	t.mu.Lock()
	ids := make([]string, len(t.order))
	copy(ids, t.order)
	traces := make([]*Trace, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		traces = append(traces, t.byID[ids[i]])
	}
	t.mu.Unlock()
	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	out := make([]TraceSummary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.Summary())
	}
	return out
}
