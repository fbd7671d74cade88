// Server-side observability: the tracing/metrics middleware around the
// route table, the /v1/traces query endpoints (with cross-node
// stitching), the Prometheus /metrics exposition, and the
// separate ops listener's handler (metrics + pprof + healthz).
//
// Invariant (enforced by the cluster parity suite): nothing in this
// file may alter a /v1 response BODY. Tracing lives in the X-Spmt-Trace
// header, side endpoints, and process memory; metrics are read-only
// snapshots of counters the handlers already maintain.
package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/shard"
)

// httpDurationBuckets are the per-endpoint latency bucket bounds in
// seconds (a warm cache hit is sub-millisecond; a cold full-size
// figure sweep runs for many seconds).
var httpDurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// statusWriter records the response status for metrics/span labels. It
// passes Flush through so the NDJSON batch stream keeps flushing
// per-line exactly as it does unwrapped.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceable reports whether requests to path get a trace: all of /v1
// except the trace-query endpoints themselves, whose requests (and the
// stitcher's side-channel fetches) would otherwise churn the very ring
// they are reading, and the cluster control plane, whose periodic
// probes and gossip would drown real request traces in heartbeat
// noise.
func traceable(path string) bool {
	return strings.HasPrefix(path, "/v1/") &&
		!strings.HasPrefix(path, "/v1/traces") &&
		!strings.HasPrefix(path, "/v1/cluster")
}

// observe wraps the route table with the observability and
// overload-safety middleware: every request is counted and timed per
// endpoint pattern, traceable requests run under a trace adopted from
// X-Spmt-Trace (a forwarded hop lands its spans in the same trace the
// entry node started) or freshly minted AND under the cluster-wide
// deadline (adopted from X-Spmt-Deadline, or minted from the
// configured default), and handler panics are contained to a 500.
func (s *Server) observe(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		var span *obs.Span
		if traceable(r.URL.Path) {
			ctx := r.Context()
			// Cluster-wide deadline: a forwarded leg carries the sender's
			// remaining budget in whole milliseconds; an entry request gets
			// the configured default (0 = none). The context cancels engine
			// work when the budget is spent, which handlers map to 504 and
			// the admission gate folds into its wait bound.
			var cancel context.CancelFunc
			if h := r.Header.Get(shard.DeadlineHeader); h != "" {
				ctx, cancel = shard.AdoptDeadline(ctx, h)
			} else if s.defaultDeadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, s.defaultDeadline)
			}
			if cancel != nil {
				defer cancel()
			}
			// Arm the engine-side admission hook: a request classified
			// warm by the handler's index probe bypasses the HTTP gate,
			// but eviction can turn it cold by the time Exec commits to
			// computing — the hook re-checks at that moment, closing the
			// probe/compute TOCTOU window. Requests that acquired the
			// gate up front pass for free via admitState.
			if s.gate != nil {
				ctx = s.withComputeGate(ctx)
			}
			tr := s.tracer.Trace(r.Header.Get(obs.TraceHeader))
			ctx = obs.ContextWithTrace(ctx, tr)
			// The header goes out before the handler commits a status, so
			// clients always learn the ID to query /v1/traces/{id} with.
			w.Header().Set(obs.TraceHeader, tr.ID())
			span, ctx = obs.StartSpan(ctx, "http "+r.Method+" "+r.URL.Path)
			r = r.WithContext(ctx)
		}
		start := time.Now()
		s.serveRecovered(mux, sw, r)
		// ServeMux stamped r.Pattern while routing; the pattern (not the
		// raw path) keys the metrics so figure IDs and junk paths cannot
		// explode label cardinality.
		endpoint := "unmatched"
		if p := r.Pattern; p != "" {
			endpoint = p
			if i := strings.IndexByte(p, ' '); i >= 0 {
				endpoint = p[i+1:]
			}
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.httpReqs.Add(1, endpoint, strconv.Itoa(status))
		s.httpDur.Observe(time.Since(start).Seconds(), endpoint)
		if span != nil {
			span.SetAttr("endpoint", endpoint)
			span.SetAttr("status", strconv.Itoa(status))
			span.End()
		}
	})
}

// serveRecovered runs the route table under the panic barrier: a
// panicking handler becomes a logged 500 (when no bytes have been
// written yet) and a counter bump, not a torn-down connection — one
// poisoned request must not look like a node failure to the client or
// to the cluster's prober. http.ErrAbortHandler passes through: it is
// net/http's own sentinel for a deliberately-aborted response.
func (s *Server) serveRecovered(mux *http.ServeMux, sw *statusWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.httpPanics.Add(1)
		slog.Error("server: handler panic",
			"method", r.Method, "path", r.URL.Path, "panic", rec,
			"trace", obs.TraceIDFrom(r.Context()), "stack", string(debug.Stack()))
		if sw.status == 0 {
			writeError(sw, http.StatusInternalServerError,
				fmt.Errorf("internal error: handler panic (see server log)"))
		}
	}()
	mux.ServeHTTP(sw, r)
}

// tracesResponse is the GET /v1/traces body.
type tracesResponse struct {
	Node   string             `json:"node,omitempty"`
	Traces []obs.TraceSummary `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Node:   s.tracer.Node(),
		Traces: s.tracer.Recent(limit),
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %q is not resident (ring keeps the most recent %d)", id, obs.DefaultTraceCapacity))
		return
	}
	tj := tr.JSON()
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		s.stitchTrace(r.Context(), tj)
	}
	writeJSON(w, http.StatusOK, tj)
}

// peerRef is one span that crossed the wire to a peer (attr "peer"),
// the graft point for that peer's span subtree.
type peerRef struct {
	peer string
	span *obs.SpanJSON
}

// collectPeerRefs walks the tree in display order and returns the
// first referencing span for each peer not yet visited.
func collectPeerRefs(spans []*obs.SpanJSON, visited map[string]bool) []peerRef {
	var refs []peerRef
	seen := map[string]bool{}
	var walk func([]*obs.SpanJSON)
	walk = func(ss []*obs.SpanJSON) {
		for _, sp := range ss {
			if peer := sp.Attrs["peer"]; peer != "" && !visited[peer] && !seen[peer] {
				seen[peer] = true
				refs = append(refs, peerRef{peer: peer, span: sp})
			}
			walk(sp.Children)
		}
	}
	walk(spans)
	return refs
}

// stitchTrace grafts peers' span subtrees into the local tree: any
// span carrying a "peer" attribute names a node that handled part of
// this trace, so its local subtree (fetched via the ?scope=local
// side channel) is appended under the first such span. Newly-grafted
// subtrees are scanned too — an artifact-fetch chain can extend a
// trace across nodes the entry node never spoke to — with the visited
// set keeping the walk loop-free. Unreachable peers leave a
// stitch_error attribute instead of failing the whole trace.
func (s *Server) stitchTrace(ctx context.Context, tj *obs.TraceJSON) {
	visited := map[string]bool{s.cluster.Self(): true}
	members := s.cluster.Members()
	pending := collectPeerRefs(tj.Roots, visited)
	// Each round strictly grows visited, so membership bounds the walk.
	for round := 0; round < len(members) && len(pending) > 0; round++ {
		var next []peerRef
		for _, ref := range pending {
			if visited[ref.peer] || !slices.Contains(members, ref.peer) {
				continue
			}
			visited[ref.peer] = true
			var sub obs.TraceJSON
			if err := s.cluster.GetJSON(ctx, ref.peer,
				"/v1/traces/"+url.PathEscape(tj.ID)+"?scope=local", &sub); err != nil {
				if ref.span.Attrs == nil {
					ref.span.Attrs = map[string]string{}
				}
				ref.span.Attrs["stitch_error"] = err.Error()
				continue
			}
			ref.span.Children = append(ref.span.Children, sub.Roots...)
			tj.Spans += sub.Spans
			tj.Dropped += sub.Dropped
			next = append(next, collectPeerRefs(sub.Roots, visited)...)
		}
		pending = next
	}
}

// handleMetrics renders the Prometheus exposition: the tagged fields of
// the same snapshot /v1/stats serves, so the two views can never
// disagree about a total, plus the three live vectors that have no
// /v1/stats counterpart.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.localStats()
	if st.Admit == nil {
		// The admission families stay scrapeable, at zero, with the gate
		// off.
		st.Admit = &admit.Stats{}
	}
	mw := obs.NewMetricsWriter()
	mw.Walk(st)
	s.admitDecisions.Write(mw, "spmt_admit_decisions_total",
		"Admission decisions by endpoint and decision.")
	s.httpReqs.Write(mw, "spmt_http_requests_total", "HTTP requests by endpoint pattern and status code.")
	s.httpDur.Write(mw, "spmt_http_request_duration_seconds", "HTTP request latency by endpoint pattern.")

	out, err := mw.Bytes()
	if err != nil {
		// A name/label bug must fail the scrape loudly, not emit a
		// half-document Prometheus would half-ingest.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(out) //nolint:errcheck // client went away
}

// OpsHandler returns the separate ops listener's route table: metrics,
// health, and pprof. It is deliberately not part of Handler() — the
// profiling endpoints never belong on the client-facing port; /metrics
// appears on both so single-listener deployments can still be scraped.
//
// Health is split in two: /healthz is pure liveness (the process is up
// and serving — restart it if this fails), while /readyz is readiness
// (route traffic here?) and answers 503 while the node is draining for
// shutdown or its admission queue is saturated.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck // client went away
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleReadyz answers the readiness probe: 200 while the node should
// receive traffic, 503 while it is draining for shutdown or its
// admission queue is saturated (new work would only be shed anyway).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck // client went away
	case s.gate.Saturated():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "saturated\n") //nolint:errcheck // client went away
	default:
		io.WriteString(w, "ready\n") //nolint:errcheck // client went away
	}
}

// Tracer exposes the server's trace ring (for tests and embedding).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }
