// Server-side observability: the tracing/metrics middleware around the
// route table, the /v1/traces query endpoints (with cross-node
// stitching), the hand-rolled Prometheus /metrics exposition, and the
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
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
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
				if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
					if ms > 0 {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
					} else {
						// An explicit "0" (or below) is a SPENT budget,
						// not an absent one: adopt an already-expired
						// context so cold compute rejects as 504
						// immediately while store-resolvable work still
						// answers. Ignoring it would grant this hop an
						// unbounded budget the sender never had.
						ctx, cancel = context.WithTimeout(ctx, -time.Millisecond)
					}
				}
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

// handleMetrics renders the Prometheus exposition. Every value is
// snapshotted from the same counters /v1/stats serves, so the two
// views can never disagree about a total.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mw := obs.NewMetricsWriter()
	es := s.eng.Stats()

	mw.Counter("spmt_engine_jobs_executed_total",
		"Engine job Run invocations (store misses not deduplicated).", float64(es.Executed))
	mw.Counter("spmt_engine_jobs_deduped_total",
		"Engine calls that joined an identical in-flight computation.", float64(es.Deduped))
	mw.Gauge("spmt_engine_workers", "Engine worker-pool size.", float64(es.Workers))
	for _, kind := range sortedKeys(es.Latency) {
		mw.Histogram("spmt_engine_job_duration_seconds",
			"Engine job Run latency by job kind.", latencySnapshot(es.Latency[kind]),
			obs.A("kind", kind))
	}

	ss := es.Sched
	mw.Gauge("spmt_sched_workers",
		"Work-stealing scheduler core budget (primary workers).", float64(ss.Workers))
	mw.Counter("spmt_sched_tasks_submitted_total",
		"Tasks handed to the scheduler (inline runs included).", float64(ss.Submitted))
	mw.Counter("spmt_sched_tasks_completed_total",
		"Tasks retired by the scheduler (cancelled tasks included).", float64(ss.Completed))
	mw.Counter("spmt_sched_tasks_inline_total",
		"Do calls that ran inline on a worker already holding a core.", float64(ss.Inline))
	for _, kind := range sortedKeys(ss.TasksByKind) {
		mw.Counter("spmt_sched_tasks_total",
			"Tasks submitted by kind (bench, dep, sim, spec).",
			float64(ss.TasksByKind[kind]), obs.A("kind", kind))
	}
	mw.Counter("spmt_sched_steals_total",
		"Tasks claimed from another worker's deque.", float64(ss.Steals))
	mw.Counter("spmt_sched_parks_total",
		"Worker idle-park transitions (blocking waits included).", float64(ss.Parks))
	mw.Counter("spmt_sched_unparks_total",
		"Worker wake-ups from an idle park.", float64(ss.Unparks))
	mw.Gauge("spmt_sched_queue_depth",
		"Tasks queued across the global queue and every deque.", float64(ss.QueueDepth))
	mw.Counter("spmt_sched_substitutes_spawned_total",
		"Substitute workers spawned to cover blocked primaries.", float64(ss.SubstitutesSpawned))
	mw.Gauge("spmt_sched_substitutes_alive",
		"Substitute workers currently live.", float64(ss.SubstitutesAlive))
	var busy float64
	for _, pw := range ss.PerWorker {
		busy += pw.BusyMS
	}
	mw.Counter("spmt_sched_worker_busy_seconds_total",
		"Cumulative task-execution time summed over primary workers.", busy/1000)

	writeTierCounter := func(name, help string, mem uint64, disk func(*engine.DiskStats) uint64) {
		mw.Counter(name, help, float64(mem), obs.A("tier", "mem"))
		if es.Disk != nil {
			mw.Counter(name, help, float64(disk(es.Disk)), obs.A("tier", "disk"))
		}
	}
	writeTierGauge := func(name, help string, mem int64, disk func(*engine.DiskStats) int64) {
		mw.Gauge(name, help, float64(mem), obs.A("tier", "mem"))
		if es.Disk != nil {
			mw.Gauge(name, help, float64(disk(es.Disk)), obs.A("tier", "disk"))
		}
	}
	writeTierCounter("spmt_store_hits_total", "Artifact store hits by tier.",
		es.Cache.Hits, func(d *engine.DiskStats) uint64 { return d.Hits })
	writeTierCounter("spmt_store_misses_total", "Artifact store misses by tier.",
		es.Cache.Misses, func(d *engine.DiskStats) uint64 { return d.Misses })
	writeTierCounter("spmt_store_evictions_total", "Artifact store evictions by tier.",
		es.Cache.Evictions, func(d *engine.DiskStats) uint64 { return d.Evictions })
	writeTierGauge("spmt_store_entries", "Artifacts resident by tier.",
		int64(es.Cache.Entries), func(d *engine.DiskStats) int64 { return int64(d.Entries) })
	writeTierGauge("spmt_store_bytes_resident", "Approximate resident bytes by tier.",
		es.Cache.BytesResident, func(d *engine.DiskStats) int64 { return d.BytesResident })
	writeTierGauge("spmt_store_bytes_capacity", "Byte budget by tier (0 = unbounded).",
		es.Cache.BytesCapacity, func(d *engine.DiskStats) int64 { return d.BytesCapacity })
	if es.Disk != nil {
		mw.Counter("spmt_store_disk_writes_total", "Artifact images written to disk.", float64(es.Disk.Writes))
		mw.Counter("spmt_store_disk_errors_total", "Disk tier write/read/decode errors.", float64(es.Disk.Errors))
		mw.Counter("spmt_store_disk_async_writes_total", "Writes accepted by the async queue.", float64(es.Disk.AsyncWrites))
		mw.Gauge("spmt_store_disk_queue_depth", "Writes queued for the background writer.", float64(es.Disk.QueueDepth))
		mw.Counter("spmt_store_disk_flushes_total", "Explicit flushes (Flush/Close) of the async queue.", float64(es.Disk.Flushes))
	}

	ts := s.tracer.Stats()
	mw.Counter("spmt_traces_started_total", "Traces created (fresh and adopted IDs).", float64(ts.Started))
	mw.Counter("spmt_trace_spans_dropped_total", "Spans discarded over the per-trace budget.", float64(ts.SpansDropped))
	mw.Gauge("spmt_traces_resident", "Traces held in the ring.", float64(ts.Resident))

	mw.Counter("spmt_http_panics_total",
		"Handler panics recovered by the HTTP barrier.", float64(s.httpPanics.Load()))

	// Admission gate (all-zero when disabled — the families stay
	// scrapeable either way).
	gs := s.gate.Stats()
	mw.Gauge("spmt_admit_capacity", "Admission gate weighted capacity (0 = gate disabled).", float64(gs.Capacity))
	mw.Gauge("spmt_admit_in_use", "Weight units held by admitted computes.", float64(gs.InUse))
	mw.Gauge("spmt_admit_waiting", "Requests queued for admission.", float64(gs.Waiting))
	mw.Counter("spmt_admit_admitted_total", "Cold computes admitted through the gate.", float64(gs.Admitted))
	mw.Counter("spmt_admit_bypassed_total", "Store-resolvable requests that bypassed the gate.", float64(gs.Bypassed))
	mw.Counter("spmt_admit_rejected_total", "Requests shed by the admission gate, by cause.",
		float64(gs.RejectedFull), obs.A("reason", "full"))
	mw.Counter("spmt_admit_rejected_total", "Requests shed by the admission gate, by cause.",
		float64(gs.RejectedDeadline), obs.A("reason", "deadline"))
	mw.Counter("spmt_admit_rejected_total", "Requests shed by the admission gate, by cause.",
		float64(gs.RejectedWait), obs.A("reason", "wait"))
	mw.Counter("spmt_admit_rejected_total", "Requests shed by the admission gate, by cause.",
		float64(gs.Canceled), obs.A("reason", "canceled"))
	s.admitDecisions.Write(mw, "spmt_admit_decisions_total",
		"Admission decisions by endpoint and decision.")

	// Speculative precomputation (present only with -speculate: the
	// families would be all-zero noise on a server that cannot move
	// them).
	if s.spec != nil {
		sp := s.spec.stats()
		mw.Counter("spmt_spec_predictions_total", "Successor predictions produced by the spawn-point predictor.", float64(sp.Predictions))
		mw.Counter("spmt_spec_launches_total", "Speculative artifact computations launched on idle workers.", float64(sp.Launches))
		mw.Counter("spmt_spec_hits_total", "Speculatively-launched artifacts later requested on the demand path.", float64(sp.Hits))
		mw.Counter("spmt_spec_withdrawn_total", "Predictions stood down for saturation or drain.", float64(sp.Withdrawn))
		mw.Counter("spmt_spec_skipped_total", "Predictions vetoed as already stored or not self-owned.", float64(sp.Skipped))
		mw.Counter("spmt_spec_errors_total", "Speculative launches that failed.", float64(sp.Errors))
		mw.Counter("spmt_spec_dropped_total", "Predictions shed by the bounded queue.", float64(sp.Dropped))
		mw.Gauge("spmt_spec_queue_depth", "Predictions queued for launch.", float64(sp.QueueDepth))
		mw.Gauge("spmt_spec_wasted_bytes", "Store bytes held by launched artifacts no demand request has asked for.", float64(sp.WastedBytes))
		mw.Gauge("spmt_spec_accuracy", "Hits/launches — the spawn-scheme accuracy analogue.", sp.Accuracy)
		mw.Gauge("spmt_spec_predictor_states", "Source keys tracked by the transition table.", float64(sp.Predictor.States))
		mw.Counter("spmt_spec_predictor_observations_total", "Transitions recorded by the predictor.", float64(sp.Predictor.Observations))
		mw.Counter("spmt_spec_predictor_evictions_total", "Predictor states dropped by the LRU bound.", float64(sp.Predictor.Evictions))
	}

	// Fault injector (testing only; absent in production processes).
	if s.fault != nil {
		fs := s.fault.Stats()
		for _, op := range sortedKeys(fs.Decisions) {
			mw.Counter("spmt_fault_decisions_total",
				"Fault-injection coin flips by operation.", float64(fs.Decisions[op]), obs.A("op", op))
		}
		for _, op := range sortedKeys(fs.Injected) {
			mw.Counter("spmt_fault_injected_total",
				"Faults actually injected by operation.", float64(fs.Injected[op]), obs.A("op", op))
		}
	}

	if s.cluster != nil {
		cs := s.cluster.Stats()
		mw.Gauge("spmt_shard_members", "Cluster member count.", float64(len(cs.Members)))
		mw.Counter("spmt_shard_proxied_total", "Requests forwarded to their owning shard.", float64(cs.Proxied))
		for _, reason := range sortedKeys(cs.ProxyFallbackReasons) {
			mw.Counter("spmt_shard_proxy_fallbacks_total",
				"Failed forwards answered by local compute, by cause.",
				float64(cs.ProxyFallbackReasons[reason]), obs.A("reason", reason))
		}
		mw.Counter("spmt_shard_batch_fanouts_total", "Sub-batches sent to owning shards.", float64(cs.BatchFanouts))
		for _, reason := range sortedKeys(cs.BatchFallbackReasons) {
			mw.Counter("spmt_shard_batch_fallback_specs_total",
				"Batch specs recomputed locally after a sub-batch failure, by cause.",
				float64(cs.BatchFallbackReasons[reason]), obs.A("reason", reason))
		}
		mw.Counter("spmt_shard_remote_fetches_total", "Artifact images fetched from owning shards.", float64(cs.RemoteFetches))
		mw.Counter("spmt_shard_fetch_misses_total", "Artifact fetches the owner could not serve.", float64(cs.FetchMisses))
		for _, reason := range sortedKeys(cs.FetchErrorReasons) {
			mw.Counter("spmt_shard_fetch_errors_total",
				"Artifact fetch failures by cause (transport vs decode).",
				float64(cs.FetchErrorReasons[reason]), obs.A("reason", reason))
		}
		mw.Counter("spmt_shard_artifacts_served_total", "Artifact images served to peers.", float64(cs.ArtifactsServed))

		mw.Gauge("spmt_shard_membership_epoch", "Membership version; bumps on every join/leave.", float64(cs.Epoch))
		mw.Gauge("spmt_shard_ring_version", "Effective-ring rebuilds (membership + suspicion changes).", float64(cs.RingVersion))
		mw.Gauge("spmt_shard_replicas", "Configured replication factor R.", float64(cs.Replicas))
		mw.Gauge("spmt_shard_suspects", "Members currently excluded from the effective ring.", float64(len(cs.Suspects)))
		mw.Counter("spmt_shard_probes_total", "Health probes sent to peers.", float64(cs.Probes))
		mw.Counter("spmt_shard_probe_failures_total", "Health probes that failed.", float64(cs.ProbeFailures))
		mw.Counter("spmt_shard_suspicions_total", "Peers suspected after K consecutive probe failures.", float64(cs.Suspicions))
		mw.Counter("spmt_shard_readmissions_total", "Suspected peers readmitted on probe success.", float64(cs.Readmissions))
		mw.Counter("spmt_shard_peer_retries_total", "Transiently-failed peer calls retried against the replica.", float64(cs.PeerRetries))
		mw.Counter("spmt_shard_peer_retry_successes_total", "Replica retries that answered.", float64(cs.PeerRetrySuccesses))

		rs := cs.Replication
		mw.Counter("spmt_shard_replication_pushed_total", "Artifact images pushed to replica owners.", float64(rs.Pushed))
		mw.Counter("spmt_shard_replication_push_errors_total", "Failed replication pushes.", float64(rs.PushErrors))
		mw.Counter("spmt_shard_replication_dropped_total", "Write-through pushes shed on a full queue.", float64(rs.Dropped))
		mw.Gauge("spmt_shard_replication_pending", "Write-through pushes queued or in flight.", float64(rs.Pending))
		mw.Counter("spmt_shard_replication_received_total", "Pushed artifact images stored from peers.", float64(rs.Received))
		mw.Counter("spmt_shard_replication_received_duplicate_total", "Pushed images for already-resident keys.", float64(rs.ReceivedDuplicate))
		mw.Counter("spmt_shard_replication_sweeps_total", "Completed re-replication sweeps.", float64(rs.Sweeps))
		mw.Counter("spmt_shard_replication_sweep_keys_total", "Store keys scanned by re-replication sweeps.", float64(rs.SweepKeys))
		mw.Counter("spmt_shard_replication_sweep_pushed_total", "Images pushed by re-replication sweeps.", float64(rs.SweepPushed))
		mw.Counter("spmt_shard_replication_sweep_errors_total", "Check/push failures during re-replication sweeps.", float64(rs.SweepErrors))
		mw.Gauge("spmt_shard_replication_last_sweep_epoch", "Membership epoch of the last completed sweep.", float64(rs.LastSweepEpoch))

		bs := cs.Breaker
		mw.Counter("spmt_breaker_opens_total", "Peer circuits opened after consecutive failures.", float64(bs.Opens))
		mw.Counter("spmt_breaker_closes_total", "Peer circuits closed by a successful half-open probe.", float64(bs.Closes))
		mw.Counter("spmt_breaker_fast_fails_total", "Peer calls fast-failed by an open circuit.", float64(bs.FastFails))
		mw.Counter("spmt_breaker_half_open_probes_total", "Trial calls admitted by half-open circuits.", float64(bs.HalfOpenProbes))
		mw.Gauge("spmt_breaker_open_circuits", "Peer circuits currently open.", float64(len(bs.Open)))
	}

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

// latencySnapshot converts the engine's millisecond histogram into the
// seconds-based exposition form.
func latencySnapshot(ls engine.LatencyStats) obs.HistSnapshot {
	bounds := make([]float64, len(ls.BucketsMS))
	for i, ms := range ls.BucketsMS {
		bounds[i] = ms / 1000
	}
	return obs.HistSnapshot{
		Bounds: bounds,
		Counts: ls.Counts,
		Sum:    ls.TotalMS / 1000,
		Count:  ls.Count,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
