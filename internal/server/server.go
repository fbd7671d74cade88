// Package server implements the spmt-server HTTP API: the paper's
// analysis pipeline and Clustered SpMT simulator exposed as a JSON
// service. Every endpoint resolves its work through one shared
// engine.Engine, so concurrent clients deduplicate in-flight
// computations and repeat requests are served from the content-keyed
// artifact cache (observable via /v1/stats).
//
// Endpoints:
//
//	POST /v1/analyze      {"bench","size"}            → pipeline artefact summary
//	POST /v1/pairs        {"bench","size","policy"}   → spawn-pair table
//	POST /v1/simulate     {"bench","size","policy",…} → simulation result
//	POST /v1/batch        {"size","specs"|"sweep"}    → NDJSON stream, one sim per line
//	GET  /v1/figures/{id} ?size=test&bench=a,b        → one paper figure as JSON
//	GET  /v1/artifacts    ?key=…                      → encoded artifact image (shard exchange)
//	GET  /v1/stats                                    → engine/store/shard counters
//	GET  /v1/traces       ?limit=N                    → recent trace summaries
//	GET  /v1/traces/{id}  ?scope=local                → one trace's span tree (cluster-stitched)
//	GET  /metrics                                     → Prometheus text exposition
//
// Every /v1 request runs under a trace: the X-Spmt-Trace header names
// it (adopted when a peer forwarded the request, minted otherwise) and
// is echoed on the response, so a client can fetch the cluster-wide
// span tree from /v1/traces/{id} on the node it talked to. See obs.go.
//
// In peer mode (NewCluster) a consistent-hash ring over the member
// list routes every request to the node owning its artifact key:
// owned work runs locally, everything else is proxied to the owner,
// and a proxy failure falls back to local compute so a degraded
// cluster still answers — byte-identically, because every node runs
// the same deterministic pipeline. See shard.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// maxBodyBytes bounds request bodies; every request here is a small
// JSON document (the largest legitimate body is a 4096-spec batch,
// well under 1 MB).
const maxBodyBytes = 1 << 20

// Config carries the overload-safety knobs. The zero value disables
// all of them (no admission gate, no default deadline, no fault
// injection) — the library default; the spmt-server binary enables
// admission and deadlines via flags.
type Config struct {
	// DefaultDeadline is the per-request time budget minted for /v1
	// requests that arrive without an X-Spmt-Deadline header (0 = no
	// deadline). It propagates across every cluster hop, shrinking at
	// each leg, and cancels engine work when spent (→ 504).
	DefaultDeadline time.Duration
	// AdmitCapacity enables the cost-tiered admission gate with the
	// given weighted concurrency (0 = gate disabled). Store-resolvable
	// requests bypass the gate; cold computes queue (bounded) and shed
	// with 429 + Retry-After.
	AdmitCapacity int
	// AdmitQueue bounds the gate's wait queue (0 = 4×capacity).
	AdmitQueue int
	// AdmitMaxWait bounds one request's queue wait (0 = 2s).
	AdmitMaxWait time.Duration
	// Fault installs a deterministic fault injector whose stats are
	// exposed under /v1/stats and /metrics (testing only; nil in
	// production). Wiring the injector into the disk tier and peer
	// transports is the caller's job — this reference only makes the
	// injection observable.
	Fault *fault.Injector
	// Speculate enables speculative artifact precomputation: a spawn-
	// point predictor over the request stream (internal/spec) launches
	// predicted cold artifacts while scheduler cores are idle. Off by
	// default; /v1 responses are byte-identical either way.
	Speculate bool
	// ReplRepairInterval paces the replication drop-repair tick (0 =
	// 2s): accumulated write-through drops trigger a coalescing
	// re-replication sweep so an overflow burst converges back to R
	// copies without waiting for a membership change.
	ReplRepairInterval time.Duration
}

// Server shares one engine across all requests.
type Server struct {
	eng      *engine.Engine
	cluster  *shard.Cluster
	codec    engine.Codec
	requests atomic.Uint64
	sweep    sweeper

	gate            *admit.Gate  // nil = admission disabled
	spec            *speculation // nil = speculation disabled
	defaultDeadline time.Duration
	fault           *fault.Injector // nil = no injection
	draining        atomic.Bool
	httpPanics      atomic.Uint64

	tracer         *obs.Tracer
	httpReqs       *obs.CounterVec   // by endpoint pattern, status code
	httpDur        *obs.HistogramVec // by endpoint pattern
	admitDecisions *obs.CounterVec   // by endpoint, decision
}

// New builds a standalone Server over the given engine (nil selects a
// GOMAXPROCS-sized engine with the default cache).
func New(eng *engine.Engine) *Server { return NewCluster(eng, nil) }

// NewCluster builds a Server participating in a shard cluster (nil cl
// degenerates to a standalone server). The engine should be built with
// engine.Options.Remote wired to shard.NewFetcher over the same
// cluster, so store misses pull artifact images from their owners.
func NewCluster(eng *engine.Engine, cl *shard.Cluster) *Server {
	return NewWithConfig(eng, cl, Config{})
}

// NewWithConfig builds a Server with explicit overload-safety
// configuration (see Config).
func NewWithConfig(eng *engine.Engine, cl *shard.Cluster, cfg Config) *Server {
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	node := ""
	if cl != nil {
		node = cl.Self()
	}
	s := &Server{
		eng:             eng,
		cluster:         cl,
		codec:           codec.New(),
		defaultDeadline: cfg.DefaultDeadline,
		fault:           cfg.Fault,
		tracer:          obs.NewTracer(node, 0, 0),
		httpReqs:        obs.NewCounterVec("endpoint", "code"),
		httpDur:         obs.NewHistogramVec(httpDurationBuckets, "endpoint"),
		admitDecisions:  obs.NewCounterVec("endpoint", "decision"),
	}
	if cfg.AdmitCapacity > 0 {
		s.gate = admit.NewGate(admit.Options{
			Capacity:   cfg.AdmitCapacity,
			QueueLimit: cfg.AdmitQueue,
			MaxWait:    cfg.AdmitMaxWait,
		})
	}
	if cfg.Speculate {
		s.spec = newSpeculation(s)
	}
	s.sweep.s = s
	s.wireSweeper(cfg.ReplRepairInterval)
	return s
}

// SetDraining marks the server as shutting down: /readyz answers 503
// so load balancers stop routing, while in-flight requests and
// /healthz (liveness) are unaffected.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close stops the server's background work (the re-replication
// sweeper and the speculator), waiting for an active sweep to finish.
// It does not close the engine or the cluster — the caller owns those.
func (s *Server) Close() {
	if s.spec != nil {
		s.spec.close()
	}
	s.sweep.close()
}

// Engine returns the server's engine (for tests and embedding).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Cluster returns the server's shard cluster view (nil when
// standalone).
func (s *Server) Cluster() *shard.Cluster { return s.cluster }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/pairs", s.handlePairs)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/figures/{id}", s.handleFigure)
	mux.HandleFunc("GET /v1/artifacts", s.handleArtifact)
	mux.HandleFunc("PUT /v1/artifacts", s.handleArtifactPut)
	mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	mux.HandleFunc("POST /v1/cluster/leave", s.handleClusterLeave)
	mux.HandleFunc("GET /v1/cluster/membership", s.handleMembershipGet)
	mux.HandleFunc("POST /v1/cluster/membership", s.handleMembershipPost)
	mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.observe(mux)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers already sent
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// readBody consumes the bounded request body: handlers keep the raw
// bytes so peer-mode routing can forward the request verbatim.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return data, nil
}

func decodeBody(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// parseSize maps the wire size name (default "test" — the responsive
// class; pass "small" or "full" explicitly for paper-scale runs).
func parseSize(s string) (workload.SizeClass, error) {
	if s == "" {
		return workload.SizeTest, nil
	}
	return workload.ParseSize(s)
}

func validBench(name string) error {
	for _, b := range workload.Benchmarks {
		if b == name {
			return nil
		}
	}
	return fmt.Errorf("unknown benchmark %q (have %v)", name, workload.Benchmarks)
}

// checkBench validates the benchmark/size pair without building
// anything — handlers need the size class for routing before they
// commit to local work.
func checkBench(name, size string) (workload.SizeClass, error) {
	if err := validBench(name); err != nil {
		return 0, err
	}
	return parseSize(size)
}

func parsePredictor(s string) (cluster.PredictorKind, error) {
	switch s {
	case "", "perfect":
		return cluster.Perfect, nil
	case "stride":
		return cluster.Stride, nil
	case "context":
		return cluster.Context, nil
	case "last-value":
		return cluster.LastValue, nil
	}
	return 0, fmt.Errorf("unknown predictor %q (want perfect, stride, context, or last-value)", s)
}

// bench resolves one benchmark's artefact chain through the engine: a
// warm request touches only the cache. The request context carries the
// trace into every engine job the chain submits.
func (s *Server) bench(ctx context.Context, name string, sz workload.SizeClass) (*expt.Suite, *expt.Bench, error) {
	suite, err := expt.NewSuiteEngineCtx(ctx, s.eng, sz, []string{name})
	if err != nil {
		return nil, nil, err
	}
	return suite, suite.Bench(name), nil
}

type analyzeRequest struct {
	Bench string `json:"bench"`
	Size  string `json:"size"`
}

type analyzeResponse struct {
	Bench       string  `json:"bench"`
	Size        string  `json:"size"`
	ProgramLen  int     `json:"program_len"`
	TraceEvents int     `json:"trace_events"`
	CFGNodes    int     `json:"cfg_nodes"`
	Coverage    float64 `json:"coverage"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req analyzeRequest
	if err := decodeBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sz, err := checkBench(req.Bench, req.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := expt.BenchKey(req.Bench, sz)
	if s.routeToOwner(w, r, key, body) {
		return
	}
	release, ok := s.admitCompute(w, r, "/v1/analyze", weightAnalyze, s.eng.Has(key))
	if !ok {
		return
	}
	defer release()
	suite, b, err := s.bench(r.Context(), req.Bench, sz)
	if err != nil {
		s.computeError(w, http.StatusBadRequest, err)
		return
	}
	s.noteAnalyze(req.Bench, sz)
	writeJSON(w, http.StatusOK, analyzeResponse{
		Bench:       b.Name,
		Size:        suite.Size.String(),
		ProgramLen:  b.Trace.Program.Len(),
		TraceEvents: b.Trace.Len(),
		CFGNodes:    len(b.Graph.Nodes),
		Coverage:    b.Graph.Coverage,
	})
}

type pairsRequest struct {
	Bench  string `json:"bench"`
	Size   string `json:"size"`
	Policy string `json:"policy"` // default "profile"
}

type pairJSON struct {
	SP      uint32  `json:"sp"`
	CQIP    uint32  `json:"cqip"`
	Kind    string  `json:"kind"`
	Prob    float64 `json:"prob"`
	Dist    float64 `json:"dist"`
	Score   float64 `json:"score"`
	LiveIns int     `json:"live_ins"`
}

type pairsResponse struct {
	Bench           string     `json:"bench"`
	Size            string     `json:"size"`
	Policy          string     `json:"policy"`
	TotalCandidates int        `json:"total_candidates"`
	Selected        int        `json:"selected"`
	Pairs           []pairJSON `json:"pairs"`
}

// validPolicy reports whether expt accepts the policy name.
// withPairs additionally excludes "none", which selects no table.
func validPolicy(policy string, withPairs bool) error {
	if policy == "none" && withPairs {
		withTable := slices.DeleteFunc(expt.Policies(), func(p string) bool { return p == "none" })
		return fmt.Errorf(`policy "none" selects no spawn pairs (want one of %v)`, withTable)
	}
	if slices.Contains(expt.Policies(), policy) {
		return nil
	}
	return fmt.Errorf("unknown policy %q (want one of %v)", policy, expt.Policies())
}

func (s *Server) handlePairs(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req pairsRequest
	if err := decodeBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Policy == "" {
		req.Policy = "profile"
	}
	if err := validPolicy(req.Policy, true); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sz, err := checkBench(req.Bench, req.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Route by the spawn table's own artifact key: the policy is
	// validated, so TableKey cannot fail (and "none" is excluded).
	tableKey, keyErr := expt.TableKey(req.Bench, sz, req.Policy)
	if keyErr == nil && s.routeToOwner(w, r, tableKey, body) {
		return
	}
	warm := keyErr == nil && s.eng.Has(tableKey) && s.eng.Has(expt.BenchKey(req.Bench, sz))
	release, ok := s.admitCompute(w, r, "/v1/pairs", weightTable, warm)
	if !ok {
		return
	}
	defer release()
	suite, b, err := s.bench(r.Context(), req.Bench, sz)
	if err != nil {
		s.computeError(w, http.StatusBadRequest, err)
		return
	}
	tab, err := suite.Table(b, req.Policy)
	if err != nil {
		s.computeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := pairsResponse{
		Bench:           b.Name,
		Size:            suite.Size.String(),
		Policy:          req.Policy,
		TotalCandidates: tab.TotalCandidates,
		Selected:        tab.Len(),
		Pairs:           make([]pairJSON, 0, tab.Len()),
	}
	for _, p := range tab.Primary {
		resp.Pairs = append(resp.Pairs, pairJSON{
			SP: p.SP, CQIP: p.CQIP, Kind: p.Kind.String(),
			Prob: p.Prob, Dist: p.Dist, Score: p.Score, LiveIns: len(p.LiveIns),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type simulateRequest struct {
	Bench       string `json:"bench"`
	Size        string `json:"size"`
	Policy      string `json:"policy"`    // default "profile"
	TUs         int    `json:"tus"`       // default 16
	Predictor   string `json:"predictor"` // default "perfect"
	Overhead    int64  `json:"overhead"`
	Removal     int64  `json:"removal"`
	Occurrences int    `json:"occurrences"`
	Reassign    bool   `json:"reassign"`
	MinSize     int    `json:"min_size"`
}

type simulateResponse struct {
	Bench  string          `json:"bench"`
	Size   string          `json:"size"`
	Policy string          `json:"policy"`
	TUs    int             `json:"tus"`
	Result *cluster.Result `json:"result"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req simulateRequest
	if err := decodeBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Policy == "" {
		req.Policy = "profile"
	}
	if req.TUs == 0 {
		req.TUs = 16
	}
	if err := validPolicy(req.Policy, false); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.TUs < 1 || req.Overhead < 0 || req.Removal < 0 || req.Occurrences < 0 || req.MinSize < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("tus must be >= 1 and overhead/removal/occurrences/min_size must be >= 0"))
		return
	}
	pred, err := parsePredictor(req.Predictor)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sz, err := checkBench(req.Bench, req.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sp := expt.SimSpec{
		Bench:     req.Bench,
		Policy:    req.Policy,
		TUs:       req.TUs,
		Predictor: pred,
		Overhead:  req.Overhead,
		Removal:   req.Removal,
		Occur:     req.Occurrences,
		Reassign:  req.Reassign,
		MinSize:   req.MinSize,
	}
	simKey := expt.SimKey(sz, sp)
	if s.routeToOwner(w, r, simKey, body) {
		return
	}
	warm := s.eng.Has(simKey) && s.eng.Has(expt.BenchKey(req.Bench, sz))
	release, ok := s.admitCompute(w, r, "/v1/simulate", weightTable, warm)
	if !ok {
		return
	}
	defer release()
	suite, b, err := s.bench(r.Context(), req.Bench, sz)
	if err != nil {
		s.computeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := suite.Sim(b, sp)
	if err != nil {
		s.computeError(w, http.StatusInternalServerError, err)
		return
	}
	s.noteSim(sz, sp)
	writeJSON(w, http.StatusOK, simulateResponse{
		Bench: b.Name, Size: suite.Size.String(), Policy: req.Policy, TUs: req.TUs, Result: res,
	})
}

type figureResponse struct {
	ID      string     `json:"id"`
	Size    string     `json:"size"`
	Benches []string   `json:"benches"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Note    string     `json:"note,omitempty"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !slices.Contains(expt.FigureIDs(), id) {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown figure %q (have %v)", id, expt.FigureIDs()))
		return
	}
	sz, err := parseSize(r.URL.Query().Get("size"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var names []string
	if bq := r.URL.Query().Get("bench"); bq != "" {
		names = strings.Split(bq, ",")
		for _, n := range names {
			if err := validBench(n); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
	}
	// Figures have no single engine artifact; any stable key works as
	// a routing key, and colocating one figure's whole sweep maximises
	// its internal cache sharing — so the key is canonical over the
	// bench SET (sorted, deduped), not the client's list order.
	canon := slices.Clone(names)
	slices.Sort(canon)
	canon = slices.Compact(canon)
	figKey := "fig/" + id + "/" + sz.String() + "/" + strings.Join(canon, ",")
	if s.routeToOwner(w, r, figKey, nil) {
		return
	}
	// Figures fan a whole sweep into the engine and have no single
	// store artifact to probe for warmness, so they are always gated as
	// heavy; a warm repeat still admits instantly and releases the gate
	// in microseconds.
	release, ok := s.admitCompute(w, r, "/v1/figures/{id}", weightFigure, false)
	if !ok {
		return
	}
	defer release()
	suite, err := expt.NewSuiteEngineCtx(r.Context(), s.eng, sz, names)
	if err != nil {
		s.computeError(w, http.StatusInternalServerError, err)
		return
	}
	tab, err := suite.Run(id)
	if err != nil {
		s.computeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, figureResponse{
		ID:      id,
		Size:    suite.Size.String(),
		Benches: suite.Names(),
		Title:   tab.Title,
		Columns: tab.Columns,
		Rows:    tab.Rows,
		Note:    tab.Note,
	})
}

// handleArtifact serves the encoded image of a locally-resident
// artifact — the shard-exchange endpoint peers pull through instead of
// recomputing. Strictly local (Engine.Peek): a miss here must be a
// clean 404 so the asking shard computes, never a chained fetch.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing key parameter"))
		return
	}
	// check=1 is the residency probe the re-replication sweep runs
	// before shipping an image: 204 here means "don't push", for the
	// cost of headers only.
	if r.URL.Query().Get("check") == "1" {
		if s.eng.Has(key) {
			w.WriteHeader(http.StatusNoContent)
		} else {
			w.WriteHeader(http.StatusNotFound)
		}
		return
	}
	kind, data, ok, err := s.artifactImage(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("artifact %q is not resident or has no wire form", key))
		return
	}
	if s.cluster != nil {
		s.cluster.NoteArtifactServed()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(shard.ArtifactKindHeader, kind)
	w.Write(data) //nolint:errcheck // client went away
}

// artifactImage resolves the wire image of a locally-resident artifact
// — the one lookup behind the artifact-exchange endpoint and the
// re-replication sweep. The disk tier's already-encoded image is
// relayed verbatim (no decode, no memory-tier pollution — traces are
// tens of MB); otherwise the artifact Peek finds (memory, or the
// disk tier's pending-write queue) is encoded. ok is false when the
// key is not resident here or its type has no wire form.
func (s *Server) artifactImage(key string) (kind string, data []byte, ok bool, err error) {
	if kind, data, ok = s.eng.PeekImage(key); ok {
		return kind, data, true, nil
	}
	v, ok := s.eng.Peek(key)
	if !ok {
		return "", nil, false, nil
	}
	return s.codec.Encode(v)
}

// statsResponse is the /v1/stats body. Its numeric leaves carry the
// metric tags /metrics renders (obs.MetricsWriter.Walk), so the two
// views are one declaration.
type statsResponse struct {
	Engine   engine.Stats `json:"engine"`
	Requests uint64       `json:"requests" metric:"-"`
	// Shard is this node's shard view (peer mode only); Cluster is the
	// fanned-out per-member + aggregate view (omitted for
	// ?scope=local, which is what members serve each other).
	Shard   *shard.Stats  `json:"shard,omitempty"`
	Cluster *clusterStats `json:"cluster,omitempty" metric:"-"`
	// Admit and Fault are the overload-safety views: admission-gate
	// counters (present when the gate is enabled) and fault-injector
	// counters (testing only).
	Admit *admit.Stats `json:"admit,omitempty"`
	Fault *fault.Stats `json:"fault,omitempty"`
	// Spec is the speculative-precomputation view (present when the
	// server runs with Config.Speculate).
	Spec *specStats `json:"spec,omitempty"`
	// Traces is the trace ring's activity; HTTPPanics counts handler
	// panics the HTTP barrier recovered.
	Traces     obs.TracerStats `json:"traces"`
	HTTPPanics uint64          `json:"http_panics" metric:"spmt_http_panics_total" help:"Handler panics recovered by the HTTP barrier."`
}

// localStats snapshots this node's counters: the /v1/stats?scope=local
// body and everything /metrics renders from it.
func (s *Server) localStats() statsResponse {
	st := statsResponse{
		Engine:     s.eng.Stats(),
		Requests:   s.requests.Load(),
		Traces:     s.tracer.Stats(),
		HTTPPanics: s.httpPanics.Load(),
	}
	if s.gate != nil {
		gs := s.gate.Stats()
		st.Admit = &gs
	}
	if s.fault != nil {
		fs := s.fault.Stats()
		st.Fault = &fs
	}
	if s.spec != nil {
		ss := s.spec.stats()
		st.Spec = &ss
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		st.Shard = &cs
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := s.localStats()
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		resp.Cluster = s.clusterView(r, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}
