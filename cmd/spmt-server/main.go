// Command spmt-server serves the paper's analysis pipeline and
// Clustered SpMT simulator over HTTP/JSON. All requests share one
// concurrent job engine, so identical or overlapping work — across
// endpoints and across clients — is deduplicated in flight and repeat
// requests hit the tiered artifact store: an in-memory LRU backed by
// an optional on-disk tier (-store-dir), which survives restarts and
// warms the memory tier at boot, so a restarted server answers
// previously-seen requests without re-running emulation.
//
// Peer mode (-self + -peers, or -self + -join) joins the process to a
// shard cluster: a consistent-hash ring over the member list assigns
// every artifact key an owning node, requests to any node are routed
// to their owner (so any node is a valid entry point), shards exchange
// computed artifact images over GET /v1/artifacts instead of
// recomputing, and a node whose owner is down answers by local
// compute. -peers seeds the boot membership; -join instead asks an
// existing member to admit this node and inherits the cluster's
// current membership — membership is LIVE after boot (join/leave
// endpoints, gossip, health-probe suspicion), so the lists need not
// stay identical across members.
//
// With -replicas 2 (the default) every key is owned by a primary plus
// the next distinct node on the ring: computed artifacts are pushed to
// both asynchronously, degraded reads retry the replica before
// computing locally, and any membership change triggers a background
// re-replication sweep — so a single node death costs neither
// availability nor recompute.
//
// Observability: every /v1 request runs under a trace (X-Spmt-Trace,
// queryable via GET /v1/traces/{id}, stitched across shards), and
// -ops-addr opens a second listener serving /metrics (Prometheus text
// exposition), /healthz (liveness), /readyz (readiness: 503 while
// draining or admission-saturated), and /debug/pprof — kept off the
// client port so profiling is never exposed to API consumers. Logs are
// structured (log/slog) and carry the trace ID where one applies.
//
// Overload safety: cold computes pass a weighted admission gate
// (-admit-capacity, on by default at 4×parallel) and shed with 429 +
// Retry-After when the bounded queue is full; warm, store-resolvable
// requests bypass the gate. -default-deadline mints a cluster-wide
// time budget per request (propagated and decremented across every
// forward/fan-out/fetch leg via X-Spmt-Deadline; exhaustion is a 504),
// and a per-peer circuit breaker fast-fails calls to nodes that keep
// failing, falling back to the replica or local compute.
//
// Usage:
//
//	spmt-server [-addr :8080] [-ops-addr :9090] [-parallel N] [-cache-bytes 512MB]
//	            [-store-dir /var/lib/spmt] [-store-bytes 4GB]
//	            [-self http://host0:8080 -peers http://host0:8080,http://host1:8080,…]
//
// Endpoints:
//
//	POST /v1/analyze      {"bench":"ijpeg","size":"test"}
//	POST /v1/pairs        {"bench":"ijpeg","policy":"profile"}
//	POST /v1/simulate     {"bench":"ijpeg","policy":"profile","tus":16,"predictor":"stride"}
//	POST /v1/batch        {"size":"test","sweep":{"benches":["ijpeg"],"tus":[1,2,4,8,16]}}
//	GET  /v1/figures/fig3?size=test&bench=compress,ijpeg
//	GET  /v1/stats
//	GET  /v1/traces[/{id}]
//	GET  /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	opsAddr := flag.String("ops-addr", "", "ops listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "scheduler core budget shared by every parallelism level")
	cacheBytes := flag.String("cache-bytes", "", "memory-tier resident-byte budget, e.g. 512MB (empty = unbounded)")
	storeDir := flag.String("store-dir", "", "disk-tier directory for persistent artifacts (empty = memory-only)")
	storeBytes := flag.String("store-bytes", "", "disk-tier byte budget, e.g. 4GB (empty = unbounded)")
	self := flag.String("self", "", "this node's URL as peers reach it, e.g. http://host0:8080 (enables peer mode)")
	peers := flag.String("peers", "", "comma-separated URLs of the boot membership, including -self")
	join := flag.String("join", "", "URL of an existing member to join through (alternative to -peers)")
	replicas := flag.Int("replicas", 0, "copies per key incl. the primary (0 = default 2; 1 disables replication)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "single health-probe deadline")
	probeFailures := flag.Int("probe-failures", 3, "consecutive probe failures before a peer is suspected")
	defaultDeadline := flag.Duration("default-deadline", 0, "per-request time budget minted for /v1 requests without an X-Spmt-Deadline header, propagated cluster-wide (0 = none)")
	admitCapacity := flag.Int("admit-capacity", 0, "weighted concurrency for cold computes (0 = auto: 4*parallel; negative disables admission)")
	speculate := flag.Bool("speculate", false, "speculatively precompute predicted artifacts on idle cores (responses are byte-identical either way)")
	faultInject := flag.String("fault-inject", "", "TESTING ONLY: deterministic fault spec, e.g. 'disk.read:0.1,peer.latency:0.5:100ms'")
	faultSeed := flag.Uint64("fault-seed", 1, "TESTING ONLY: seed for -fault-inject decisions")
	flag.Parse()

	inj, err := fault.Parse(*faultInject, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmt-server: -fault-inject: %v\n", err)
		os.Exit(2)
	}
	if inj != nil {
		slog.Warn("fault injection enabled (testing only)", "spec", *faultInject, "seed", *faultSeed)
	}

	if *parallel < 1 {
		fmt.Fprintln(os.Stderr, "spmt-server: -parallel must be >= 1")
		os.Exit(2)
	}
	var cl *shard.Cluster
	if *self == "" && (*peers != "" || *join != "") {
		fmt.Fprintln(os.Stderr, "spmt-server: peer mode needs -self")
		os.Exit(2)
	}
	if *self != "" && *peers == "" && *join == "" {
		fmt.Fprintln(os.Stderr, "spmt-server: peer mode needs -peers or -join")
		os.Exit(2)
	}
	if *self != "" {
		// -join boots a single-member view; the join call below (after
		// the listener is up) inherits the seed's membership.
		members := []string{*self}
		if *peers != "" {
			members = strings.Split(*peers, ",")
		}
		sopts := shard.Options{Replicas: *replicas}
		if inj != nil {
			sopts.WrapTransport = inj.Transport
		}
		var err error
		cl, err = shard.New(*self, members, sopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmt-server: %v\n", err)
			os.Exit(2)
		}
	}
	maxBytes := parseBytesFlag("-cache-bytes", *cacheBytes)
	opts := engine.Options{Workers: *parallel, CacheBytes: maxBytes}
	if *storeDir != "" {
		disk, err := engine.OpenDiskTier(*storeDir, parseBytesFlag("-store-bytes", *storeBytes), codec.New())
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmt-server: -store-dir: %v\n", err)
			os.Exit(2)
		}
		if inj != nil {
			disk.SetFaults(inj)
		}
		opts.Disk = disk
	} else if *storeBytes != "" {
		fmt.Fprintln(os.Stderr, "spmt-server: -store-bytes needs -store-dir")
		os.Exit(2)
	}
	var repl *shard.Replicator
	if cl != nil {
		opts.Remote = shard.NewFetcher(cl, codec.New())
		if cl.Replicas() > 1 {
			repl = shard.NewReplicator(cl, codec.New())
			opts.Replicate = repl
		}
	}
	eng := engine.New(opts)
	if *storeDir != "" {
		start := time.Now()
		n := eng.WarmFromDisk()
		slog.Info("warmed artifacts from disk",
			"artifacts", n, "dir", *storeDir, "took", time.Since(start).Round(time.Millisecond))
	}
	capacity := *admitCapacity
	if capacity == 0 {
		capacity = 4 * *parallel
	}
	if capacity < 0 {
		capacity = 0 // admission disabled
	}
	srv := server.NewWithConfig(eng, cl, server.Config{
		DefaultDeadline: *defaultDeadline,
		AdmitCapacity:   capacity,
		Fault:           inj,
		Speculate:       *speculate,
	})
	var prober *shard.Prober
	if cl != nil {
		slog.Info("peer mode",
			"self", cl.Self(), "members", cl.Members(), "vnodes", cl.Ring().VNodes(),
			"replicas", cl.Replicas())
		prober = shard.StartProber(cl, shard.ProberOptions{
			Interval: *probeInterval,
			Timeout:  *probeTimeout,
			Failures: *probeFailures,
		})
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Full-size figure sweeps are legitimately slow; no write
		// timeout.
	}
	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{
			Addr:              *opsAddr,
			Handler:           srv.OpsHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		slog.Info("ops listener", "addr", *opsAddr)
		go func() {
			if err := ops.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				slog.Error("ops listener failed", "addr", *opsAddr, "err", err)
				os.Exit(1)
			}
		}()
	}
	slog.Info("listening",
		"addr", *addr, "workers", eng.Workers(), "cache_entries", engine.DefaultCacheEntries,
		"cache_bytes", orUnbounded(*cacheBytes), "store", orMemoryOnly(*storeDir))

	// Graceful shutdown: stop accepting requests, then drain the disk
	// tier's async-write queue so every computed artifact is durable
	// for the next boot's warm-up. The ops listener stays up while the
	// API drains (a last scrape sees the drain), then follows.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if cl != nil && *join != "" {
		// The listener must be up before joining: the moment the seed
		// admits us, peers start routing, probing, and re-replicating
		// to this node. A few bounded attempts absorb the listener
		// race and a seed that is itself still booting.
		go func() {
			var err error
			for attempt := 0; attempt < 10; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				var ms shard.Membership
				ms, err = cl.JoinVia(ctx, *join)
				cancel()
				if err == nil {
					slog.Info("joined cluster", "via", *join, "epoch", ms.Epoch, "members", ms.Members)
					return
				}
				time.Sleep(time.Second)
			}
			slog.Error("cluster join failed; serving standalone", "via", *join, "err", err)
		}()
	}
	select {
	case sig := <-stop:
		slog.Info("shutting down", "signal", sig.String())
		// Flip readiness first: /readyz answers 503 for the whole drain,
		// so load balancers stop routing before the listener closes.
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			slog.Warn("shutdown incomplete", "err", err)
		}
		// Stop cluster background work before draining the store: no
		// probe churn, no half-finished sweep racing the flush. A
		// restart reuses the node's identity, so it does NOT leave the
		// membership — the prober's suspicion covers the gap and
		// readmits it on the way back up.
		if prober != nil {
			prober.Close()
		}
		if repl != nil {
			repl.Close()
		}
		srv.Close()
		eng.Close()
		if ops != nil {
			if err := ops.Shutdown(ctx); err != nil {
				slog.Warn("ops shutdown incomplete", "err", err)
			}
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			slog.Error("listener failed", "err", err)
			os.Exit(1)
		}
	}
}

// parseBytesFlag parses a byte-size flag, exiting with a usage error
// on malformed input. Empty means unbounded (0).
func parseBytesFlag(name, val string) int64 {
	if val == "" {
		return 0
	}
	b, err := engine.ParseBytes(val)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmt-server: %s: %v\n", name, err)
		os.Exit(2)
	}
	return b
}

func orUnbounded(s string) string {
	if s == "" {
		return "unbounded"
	}
	return s
}

func orMemoryOnly(s string) string {
	if s == "" {
		return "memory-only"
	}
	return s
}
