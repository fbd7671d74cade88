// Peer-mode routing: in a shard cluster every request is answered by
// the node owning its artifact key. The entry node forwards non-owned
// work to the owner verbatim (the owner's response bytes ARE the
// single-node response bytes, because every node runs the same
// deterministic pipeline over the same content keys), and any forward
// failure falls back to local compute, so a degraded cluster degrades
// in efficiency, never in availability or in response bytes.
//
// Batches are the one composite case: the validated grid is split
// per-spec across owners, each group streams back as a forwarded
// sub-batch, and the entry node re-merges the lines in request order —
// preserving the NDJSON stream contract bit-for-bit. A sub-batch that
// fails (dead shard, truncated stream, remote error line) has its
// missing specs recomputed locally, which reproduces the exact bytes a
// single-node server would have produced.
package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// maxProxyBodyBytes caps a buffered owner response (the largest
// legitimate one is a full-size figure table, far below this). Guards
// the entry node against a misbehaving peer, like the artifact
// fetcher's own read cap.
const maxProxyBodyBytes = 1 << 28

// forwarded reports whether the request arrived from a peer shard.
// Forwarded requests are never re-routed: the receiver computes
// locally, which implements "owned work runs locally" and makes
// routing loops impossible even under (transient) membership
// disagreement.
func forwarded(r *http.Request) bool { return r.Header.Get(shard.ForwardedHeader) != "" }

// routeToOwner forwards the request to the artifact key's owning shard
// and streams the owner's response through, reporting true when the
// response has been written. A transient primary failure (transport
// error, 5xx, death mid-body) earns ONE retry against the key's
// replica (shard.Cluster.WalkOwners) — the node holding the warm copy
// under R=2. False means the caller must answer locally: standalone
// mode, forwarded or self-owned requests, and the fallback when the
// walk is exhausted. The response bytes are identical on every path —
// primary, replica, or local — because every node runs the same
// deterministic pipeline.
func (s *Server) routeToOwner(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.cluster == nil || forwarded(r) || key == "" {
		return false
	}
	primary := s.cluster.Owner(key)
	span, ctx := obs.StartSpan(r.Context(), "route", obs.A("key", key), obs.A("owner", primary))
	defer span.End()
	if primary == "" || primary == s.cluster.Self() {
		span.SetAttr("decision", "local")
		return false
	}
	// reason keeps the primary's failure: it names the fallback when
	// the walk is exhausted.
	var reason shard.FallbackReason
	attempts := 0
	if s.cluster.WalkOwners(ctx, key, func(peer string) bool {
		if attempts++; attempts > 1 {
			span.SetAttr("retry_peer", peer)
		}
		handled, why := s.forwardTo(ctx, w, r, peer, body, span)
		if reason == "" {
			reason = why
		}
		return handled
	}) {
		decision := "proxied"
		if attempts > 1 {
			decision = "retried"
		}
		span.SetAttr("decision", decision)
		return true
	}
	s.cluster.NoteProxyFallback(reason)
	span.SetAttr("decision", "fallback")
	span.SetAttr("reason", string(reason))
	return false
}

// forwardTo attempts one peer: forward, buffer, relay. handled=true
// means the response has been written; otherwise reason names the
// transient failure and nothing has been written (the body is fully
// buffered before the first byte goes out, which is what makes a
// second attempt — or local fallback — safe).
func (s *Server) forwardTo(ctx context.Context, w http.ResponseWriter, r *http.Request,
	peer string, body []byte, span *obs.Span) (handled bool, reason shard.FallbackReason) {
	resp, err := s.cluster.Forward(ctx, peer, r.Method, r.URL.RequestURI(), body)
	reason = shard.Classify(resp, err)
	if err != nil {
		// A breaker fast-fail never touched the network, so the replica
		// retry / local fallback starts immediately.
		slog.Warn("server: forward failed",
			"method", r.Method, "path", r.URL.Path, "peer", peer, "err", err,
			"trace", obs.TraceIDFrom(ctx))
		return false, reason
	}
	defer resp.Body.Close()
	// From here the peer handled the request (and recorded its own
	// spans under our trace ID), so the span names it as a peer for the
	// cross-node stitcher even when we fall back.
	span.SetAttr("peer", peer)
	if reason != "" {
		slog.Warn("server: forward answered 5xx",
			"method", r.Method, "path", r.URL.Path, "peer", peer, "status", resp.StatusCode,
			"trace", obs.TraceIDFrom(ctx))
		return false, reason
	}
	// Buffer the whole (bounded JSON) body before relaying: a peer
	// dying mid-body must become a retry or local-compute fallback, not
	// a truncated 200 the client has no way to distinguish from
	// success. The read is capped so a misbehaving peer streaming
	// garbage becomes a fallback too, not an entry-node OOM.
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBodyBytes+1))
	if err != nil || len(out) > maxProxyBodyBytes {
		slog.Warn("server: forward died mid-body",
			"method", r.Method, "path", r.URL.Path, "peer", peer, "bytes", len(out), "err", err,
			"trace", obs.TraceIDFrom(ctx))
		return false, shard.FallbackBody
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(out) //nolint:errcheck // client went away
	return true, ""
}

// batchLine is one merged NDJSON result line of a sharded batch. Field
// names and order mirror batchItem exactly, with the result subobject
// carried as raw bytes: a line assembled from a sub-batch stream is
// byte-identical to the line the single-node handler encodes.
type batchLine struct {
	Index  int             `json:"index"`
	Bench  string          `json:"bench"`
	Size   string          `json:"size"`
	Policy string          `json:"policy"`
	TUs    int             `json:"tus"`
	Result json.RawMessage `json:"result"`
}

// wireBatchLine is the decoded shape of one sub-batch response line.
type wireBatchLine struct {
	Index  int             `json:"index"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// handleBatchSharded fans the validated grid out to the owning shards
// and merges the result streams in request order. specs are the
// defaulted wire specs (re-forwarded verbatim inside sub-batches);
// resolved are their validated SimSpec forms, index-aligned.
func (s *Server) handleBatchSharded(w http.ResponseWriter, r *http.Request,
	sz workload.SizeClass, specs []batchSpec, resolved []expt.SimSpec) {
	ctx := r.Context()

	// Group spec indices by owning shard, in first-appearance order.
	groups := make(map[string][]int)
	var order []string
	for i, sp := range resolved {
		owner := s.cluster.Owner(expt.SimKey(sz, sp))
		if _, ok := groups[owner]; !ok {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}

	type line struct {
		result json.RawMessage
		err    string
	}
	slots := make([]chan line, len(resolved))
	for i := range slots {
		slots[i] = make(chan line, 1)
	}
	deliver := func(i int, res *cluster.Result, err error) {
		if err != nil {
			slots[i] <- line{err: err.Error()}
			return
		}
		raw, merr := json.Marshal(res)
		if merr != nil {
			slots[i] <- line{err: merr.Error()}
			return
		}
		slots[i] <- line{result: raw}
	}

	// runLocal computes the given specs on this node's engine: the
	// owned group, and the fallback for any spec a sub-batch failed to
	// return. The suite covers exactly the benchmarks these specs
	// touch — artifact chains for remote-owned benchmarks are never
	// built here (and warm ones are shared through the engine).
	runLocal := func(idxs []int) {
		var names []string
		seen := make(map[string]bool)
		for _, i := range idxs {
			if n := resolved[i].Bench; !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		suite, err := expt.NewSuiteEngineCtx(ctx, s.eng, sz, names)
		if err != nil {
			for _, i := range idxs {
				deliver(i, nil, err)
			}
			return
		}
		reqs := make([]expt.SimReq, len(idxs))
		for j, i := range idxs {
			reqs[j] = expt.SimReq{Bench: suite.Bench(resolved[i].Bench), Spec: resolved[i]}
		}
		if err := suite.SimEach(ctx, reqs, func(j int, res *cluster.Result, err error) {
			deliver(idxs[j], res, err)
		}); err != nil {
			// Spec errors were excluded by validation; SimEach can only
			// fail before any callback fires.
			for _, i := range idxs {
				select {
				case slots[i] <- line{err: err.Error()}:
				default:
				}
			}
		}
	}

	// runRemote streams one owner's sub-batch, remapping its indices
	// into the request's. A sub-stream that fails before delivering a
	// single line is retried ONCE against the replica of the group's
	// first key (shard.Cluster.WalkOwners; any node answers
	// byte-identically, and the replica is the one replication keeps
	// warm). Anything still not received intact — unreachable owners,
	// non-200, truncated stream, remote error line — is recomputed
	// locally for byte-exact output.
	runRemote := func(owner string, idxs []int) {
		span, fctx := obs.StartSpan(ctx, "fanout",
			obs.A("owner", owner), obs.A("specs", strconv.Itoa(len(idxs))))
		defer span.End()
		sub := batchRequest{Size: sz.String(), Specs: make([]batchSpec, len(idxs))}
		for j, i := range idxs {
			sub.Specs[j] = specs[i]
		}
		body, err := json.Marshal(sub)
		if err != nil {
			runLocal(idxs)
			return
		}
		got := make([]bool, len(idxs))
		received := 0
		// stream attempts one peer; reason is "" when the sub-stream
		// arrived complete.
		stream := func(peer string) shard.FallbackReason {
			s.cluster.NoteBatchFanout()
			resp, err := s.cluster.Forward(fctx, peer, http.MethodPost, "/v1/batch", body)
			if err != nil {
				slog.Warn("server: batch fan-out unreachable",
					"peer", peer, "specs", len(idxs), "err", err, "trace", obs.TraceIDFrom(fctx))
				return shard.Classify(nil, err)
			}
			span.SetAttr("peer", peer)
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				slog.Warn("server: batch fan-out rejected",
					"peer", peer, "specs", len(idxs), "status", resp.StatusCode, "trace", obs.TraceIDFrom(fctx))
				return shard.FallbackStatus
			}
			dec := json.NewDecoder(resp.Body)
			for {
				var wl wireBatchLine
				if err := dec.Decode(&wl); err != nil {
					break // io.EOF, or a truncated stream from a dying shard
				}
				if wl.Index < 0 || wl.Index >= len(idxs) || got[wl.Index] {
					continue
				}
				if wl.Error != "" || len(wl.Result) == 0 {
					continue // recompute locally: deterministic failures reproduce, transient ones vanish
				}
				got[wl.Index] = true
				received++
				slots[idxs[wl.Index]] <- line{result: wl.Result}
			}
			resp.Body.Close()
			if received < len(idxs) {
				return shard.FallbackStream
			}
			return ""
		}
		// reason keeps the owner's failure, cleared if the retry
		// completes. The owner's attempt reports a partially-delivered
		// stream as done: the owner was up and the missing specs likely
		// failed deterministically, so they are recomputed locally
		// instead of replaying delivered work on another node. A retry
		// counts as answered only when its stream is complete.
		var reason shard.FallbackReason
		attempts := 0
		s.cluster.WalkOwners(fctx, expt.SimKey(sz, resolved[idxs[0]]), func(peer string) bool {
			if attempts++; attempts > 1 {
				span.SetAttr("retry_peer", peer)
			}
			why := stream(peer)
			if why == "" {
				reason = ""
				return true
			}
			if attempts == 1 {
				reason = why
				s.cluster.NoteProxyFallback(why)
			}
			return attempts == 1 && received > 0
		})
		var missing []int
		for j, ok := range got {
			if !ok {
				missing = append(missing, idxs[j])
			}
		}
		if len(missing) > 0 {
			if reason == "" {
				reason = shard.FallbackStream
			}
			s.cluster.NoteBatchFallback(len(missing), reason)
			span.SetAttr("fallback_specs", strconv.Itoa(len(missing)))
			span.SetAttr("reason", string(reason))
			runLocal(missing)
		}
	}

	// Admission: the entry node gates its own share of the grid before
	// the stream starts (a rejection must be a clean whole-request 429,
	// never a broken half-stream). Remote groups are gated by their
	// owners; fallback recomputes stay ungated because by then the
	// stream is already committed — availability over shedding.
	selfCold, selfOwned := 0, 0
	for _, owner := range order {
		if owner == s.cluster.Self() || owner == "" {
			for _, i := range groups[owner] {
				selfOwned++
				if !s.eng.Has(expt.SimKey(sz, resolved[i])) {
					selfCold++
				}
			}
		}
	}
	release := func() {}
	if selfOwned > 0 {
		var ok bool
		if release, ok = s.admitCompute(w, r, "/v1/batch", selfCold, selfCold == 0); !ok {
			return
		}
	}
	var localWG sync.WaitGroup
	for _, owner := range order {
		idxs := groups[owner]
		if owner == s.cluster.Self() || owner == "" {
			localWG.Add(1)
			go func(idxs []int) {
				defer localWG.Done()
				runLocal(idxs)
			}(idxs)
		} else {
			go runRemote(owner, idxs)
		}
	}
	go func() {
		localWG.Wait()
		release()
	}()

	// Merge in request order, flushing each line as soon as it and all
	// its predecessors are done — the single-node stream contract.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range resolved {
		select {
		case <-ctx.Done():
			return
		case ln := <-slots[i]:
			var out any
			if ln.err != "" {
				out = batchError{Index: i, Error: ln.err}
			} else {
				// Observe the full merged stream (the Eligible hook
				// confines launches to self-owned keys; learning the
				// whole progression costs nothing and survives
				// membership moves).
				s.noteSim(sz, resolved[i])
				out = batchLine{
					Index:  i,
					Bench:  resolved[i].Bench,
					Size:   sz.String(),
					Policy: resolved[i].Policy,
					TUs:    resolved[i].TUs,
					Result: ln.result,
				}
			}
			if err := enc.Encode(out); err != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// nodeStats is one member's slice of the cluster-aggregate stats view.
type nodeStats struct {
	Reachable bool          `json:"reachable"`
	Error     string        `json:"error,omitempty"`
	Engine    *engine.Stats `json:"engine,omitempty"`
	Requests  uint64        `json:"requests,omitempty"`
	Shard     *shard.Stats  `json:"shard,omitempty"`
}

// clusterAggregate sums the load-bearing counters across reachable
// members.
type clusterAggregate struct {
	Members         int    `json:"members"`
	Reachable       int    `json:"reachable"`
	Requests        uint64 `json:"requests"`
	Executed        uint64 `json:"executed"`
	Deduped         uint64 `json:"deduped"`
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	BytesResident   int64  `json:"bytes_resident"`
	DiskBytes       int64  `json:"disk_bytes"`
	Proxied         uint64 `json:"proxied"`
	RemoteFetches   uint64 `json:"remote_fetches"`
	ArtifactsServed uint64 `json:"artifacts_served"`
}

// clusterStats is the cluster view of /v1/stats: every member's local
// snapshot plus the aggregate.
type clusterStats struct {
	Aggregate clusterAggregate      `json:"aggregate"`
	Nodes     map[string]*nodeStats `json:"nodes"`
}

// clusterView fans /v1/stats?scope=local out to every member (self is
// answered from the already-taken local snapshot) and aggregates.
// Unreachable members are reported, not fatal: stats must work best on
// a degraded cluster.
func (s *Server) clusterView(r *http.Request, local statsResponse) *clusterStats {
	members := s.cluster.Members()
	nodes := make(map[string]*nodeStats, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range members {
		if m == s.cluster.Self() {
			mu.Lock()
			nodes[m] = &nodeStats{
				Reachable: true,
				Engine:    &local.Engine,
				Requests:  local.Requests,
				Shard:     local.Shard,
			}
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			var st statsResponse
			ns := &nodeStats{}
			if err := s.cluster.GetJSON(r.Context(), m, "/v1/stats?scope=local", &st); err != nil {
				ns.Error = err.Error()
			} else {
				ns.Reachable = true
				ns.Engine = &st.Engine
				ns.Requests = st.Requests
				ns.Shard = st.Shard
			}
			mu.Lock()
			nodes[m] = ns
			mu.Unlock()
		}(m)
	}
	wg.Wait()

	agg := clusterAggregate{Members: len(members)}
	for _, ns := range nodes {
		if !ns.Reachable {
			continue
		}
		agg.Reachable++
		agg.Requests += ns.Requests
		agg.Executed += ns.Engine.Executed
		agg.Deduped += ns.Engine.Deduped
		agg.CacheHits += ns.Engine.Cache.Hits
		agg.CacheMisses += ns.Engine.Cache.Misses
		agg.BytesResident += ns.Engine.Cache.BytesResident
		if ns.Engine.Disk != nil {
			agg.DiskBytes += ns.Engine.Disk.BytesResident
		}
		if ns.Shard != nil {
			agg.Proxied += ns.Shard.Proxied
			agg.RemoteFetches += ns.Shard.RemoteFetches
			agg.ArtifactsServed += ns.Shard.ArtifactsServed
		}
	}
	return &clusterStats{Aggregate: agg, Nodes: nodes}
}
