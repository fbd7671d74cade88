// Package shard is the cluster layer: one node's view of the member
// ring (live membership, suspicion, R-way replica placement), the
// peer calls that move requests and artifact images between nodes
// (peer.go: one call seam, one replica walk), the circuit breaker, the
// health prober, the engine's remote-fetch hook, and the write-through
// replicator. All counters are atomic; one Cluster is shared by the
// server handlers, the fetcher, the replicator, and the prober.
package shard

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxArtifactBytes bounds one fetched or pushed artifact image (traces
// dominate; a full-size trace is tens of MB). Guards against a
// misbehaving peer, not against legitimate artifacts. 1<<31 - 1 rather
// than 1<<31: the bound must stay a representable int on 32-bit
// builds, where 1<<31 overflows.
const MaxArtifactBytes = 1<<31 - 1

// maxBodyLimit bounds a control-plane JSON body (membership views,
// health documents — all tiny).
const maxBodyLimit = 1 << 20

// DefaultReplicas is the replication factor R when Options leaves it
// zero: every key has a primary and one next-distinct-node replica, so
// any single member loss leaves every previously-computed artifact
// warm somewhere.
const DefaultReplicas = 2

// FallbackReason distinguishes why a proxied request or fanned-out
// sub-batch was answered by local compute instead of its owner. The
// causes degrade differently — a transport error means the owner is
// down or partitioned, a 5xx means it is up but failing, a mid-body
// failure means it died streaming — so they are counted separately
// (metric label "reason") rather than collapsed into one counter.
type FallbackReason string

const (
	// FallbackTransport: the connection failed (dial, reset, timeout)
	// before a status line arrived.
	FallbackTransport FallbackReason = "transport"
	// FallbackStatus: the owner answered with a 5xx.
	FallbackStatus FallbackReason = "status"
	// FallbackBody: the owner's response died mid-body (proxy copy
	// failed after headers were committed).
	FallbackBody FallbackReason = "body"
	// FallbackStream: a fanned-out batch sub-stream ended early or
	// carried malformed lines, so the missing specs were recomputed.
	FallbackStream FallbackReason = "stream"
)

// FetchErrorReason splits artifact-fetch failures the way proxy
// fallbacks already are: a transport failure (unreachable peer, bad
// status, missing kind header) degrades differently from a decode
// failure (the peer is up but shipping corrupt images).
type FetchErrorReason string

const (
	FetchErrTransport FetchErrorReason = "transport"
	FetchErrDecode    FetchErrorReason = "decode"
)

// fallbackReasons and fetchErrorReasons are every declared cause: each
// reason split in Stats reports all of them, at 0 until one first
// fires, so a rate query over a healthy node reads 0 instead of no
// data.
var (
	fallbackReasons   = []FallbackReason{FallbackTransport, FallbackStatus, FallbackBody, FallbackStream, FallbackBreaker}
	fetchErrorReasons = []FetchErrorReason{FetchErrTransport, FetchErrDecode}
)

// Options configures a Cluster.
type Options struct {
	// VNodes is the virtual-node count per member (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// Replicas is the replication factor R: each key is owned by its
	// primary plus R-1 next-distinct ring nodes, write-through pushes
	// artifacts to all of them, and degraded reads walk it in ring
	// order (WalkOwners; <= 0 selects DefaultReplicas; 1 disables
	// replication).
	Replicas int
	// RetryBackoff is the base delay before the single bounded retry a
	// transiently-failed peer call gets against the key's replica; the
	// actual delay is jittered in [base/2, base) (default 50ms).
	RetryBackoff time.Duration
	// BreakerFailures is the consecutive transport/5xx failure count
	// that opens a peer's circuit breaker (0 selects the default 5;
	// < 0 disables the breaker entirely).
	BreakerFailures int
	// BreakerCooldown is how long an open circuit fast-fails before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// WrapTransport, when set, wraps every peer HTTP transport (proxy,
	// fetch, control-plane) — the seam the fault injector uses to
	// impose peer errors, latency, and hangs without touching
	// production call sites.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

// ReplicationStats is the R=2 write-through and re-replication view,
// exposed under shard.replication in /v1/stats.
type ReplicationStats struct {
	// Pushed counts artifact images pushed to replica owners (write-
	// through and sweep combined); PushErrors counts failed pushes;
	// PushSkipped counts sweep checks and write-through pushes that
	// found the key already on the target; Dropped counts write-through pushes shed
	// because the async queue was full (a later sweep repairs them).
	Pushed      uint64 `json:"pushed" metric:"spmt_shard_replication_pushed_total" help:"Artifact images pushed to replica owners."`
	PushErrors  uint64 `json:"push_errors" metric:"spmt_shard_replication_push_errors_total" help:"Failed replication pushes."`
	PushSkipped uint64 `json:"push_skipped" metric:"spmt_shard_replication_push_skipped_total" help:"Pushes (sweep or write-through) whose target already held the key."`
	Dropped     uint64 `json:"dropped" metric:"spmt_shard_replication_dropped_total" help:"Write-through pushes shed on a full queue."`
	// Pending gauges write-through pushes accepted but not yet
	// delivered (queued + in flight) — zero means replication has
	// quiesced.
	Pending int64 `json:"pending" metric:"spmt_shard_replication_pending" help:"Write-through pushes queued or in flight."`
	// Received counts images peers pushed to this node and stored;
	// ReceivedDuplicate counts pushes for keys already resident.
	Received          uint64 `json:"received" metric:"spmt_shard_replication_received_total" help:"Pushed artifact images stored from peers."`
	ReceivedDuplicate uint64 `json:"received_duplicate" metric:"spmt_shard_replication_received_duplicate_total" help:"Pushed images for already-resident keys."`
	// Sweeps counts completed re-replication sweeps; SweepKeys the
	// store keys they scanned; SweepPushed/SweepErrors their push
	// outcomes; LastSweepEpoch the membership epoch of the most recent
	// completed sweep.
	Sweeps         uint64 `json:"sweeps" metric:"spmt_shard_replication_sweeps_total" help:"Completed re-replication sweeps."`
	SweepKeys      uint64 `json:"sweep_keys" metric:"spmt_shard_replication_sweep_keys_total" help:"Store keys scanned by re-replication sweeps."`
	SweepPushed    uint64 `json:"sweep_pushed" metric:"spmt_shard_replication_sweep_pushed_total" help:"Images pushed by re-replication sweeps."`
	SweepErrors    uint64 `json:"sweep_errors" metric:"spmt_shard_replication_sweep_errors_total" help:"Check/push failures during re-replication sweeps."`
	LastSweepEpoch uint64 `json:"last_sweep_epoch" metric:"spmt_shard_replication_last_sweep_epoch" help:"Membership epoch of the last completed sweep."`
}

// Stats is a point-in-time snapshot of one node's shard activity,
// exposed under "shard" in /v1/stats.
type Stats struct {
	Self    string   `json:"self"`
	Members []string `json:"members" metric:"spmt_shard_members" help:"Cluster member count."`
	VNodes  int      `json:"vnodes" metric:"-"`
	// Epoch is the membership version; RingVersion counts effective-
	// ring rebuilds (membership changes plus suspicion/readmission) —
	// the stat timing-sensitive tests poll instead of sleeping.
	// Suspects lists members currently excluded from the effective
	// ring by the health prober.
	Epoch       uint64   `json:"epoch" metric:"spmt_shard_membership_epoch" help:"Membership version; bumps on every join/leave."`
	RingVersion uint64   `json:"ring_version" metric:"spmt_shard_ring_version" help:"Effective-ring rebuilds (membership + suspicion changes)."`
	Replicas    int      `json:"replicas" metric:"spmt_shard_replicas" help:"Configured replication factor R."`
	Suspects    []string `json:"suspects,omitempty" metric:"spmt_shard_suspects" help:"Members currently excluded from the effective ring."`
	// Probes/ProbeFailures count health probes sent and failed;
	// Suspicions/Readmissions count effective-ring exclusions and
	// recoveries.
	Probes        uint64 `json:"probes" metric:"spmt_shard_probes_total" help:"Health probes sent to peers."`
	ProbeFailures uint64 `json:"probe_failures" metric:"spmt_shard_probe_failures_total" help:"Health probes that failed."`
	Suspicions    uint64 `json:"suspicions" metric:"spmt_shard_suspicions_total" help:"Peers suspected after K consecutive probe failures."`
	Readmissions  uint64 `json:"readmissions" metric:"spmt_shard_readmissions_total" help:"Suspected peers readmitted on probe success."`
	// PeerRetries counts transiently-failed peer calls retried against
	// the key's replica; PeerRetrySuccesses the retries that answered.
	PeerRetries        uint64 `json:"peer_retries" metric:"spmt_shard_peer_retries_total" help:"Transiently-failed peer calls retried against the replica."`
	PeerRetrySuccesses uint64 `json:"peer_retry_successes" metric:"spmt_shard_peer_retry_successes_total" help:"Replica retries that answered."`
	// Proxied counts requests forwarded to their owning shard;
	// ProxyFallbacks counts forwards that failed and were answered by
	// local compute instead (degraded-cluster path), with
	// ProxyFallbackReasons splitting the total by FallbackReason.
	Proxied              uint64            `json:"proxied" metric:"spmt_shard_proxied_total" help:"Requests forwarded to their owning shard."`
	ProxyFallbacks       uint64            `json:"proxy_fallbacks" metric:"-"`
	ProxyFallbackReasons map[string]uint64 `json:"proxy_fallback_reasons,omitempty" metric:"spmt_shard_proxy_fallbacks_total,reason" help:"Failed forwards answered by local compute, by cause."`
	// BatchFanouts counts sub-batches sent to owning shards;
	// BatchFallbackSpecs counts batch specs recomputed locally after a
	// sub-batch failed or its stream came back incomplete, split by
	// reason in BatchFallbackReasons.
	BatchFanouts         uint64            `json:"batch_fanouts" metric:"spmt_shard_batch_fanouts_total" help:"Sub-batches sent to owning shards."`
	BatchFallbackSpecs   uint64            `json:"batch_fallback_specs" metric:"-"`
	BatchFallbackReasons map[string]uint64 `json:"batch_fallback_reasons,omitempty" metric:"spmt_shard_batch_fallback_specs_total,reason" help:"Batch specs recomputed locally after a sub-batch failure, by cause."`
	// RemoteFetches counts artifact images fetched from owning shards
	// on store miss; FetchMisses counts fetch attempts the owner could
	// not serve (it had not computed the artifact either);
	// FetchErrors counts transport/decode failures in total, split by
	// FetchErrorReason in FetchErrorReasons.
	RemoteFetches     uint64            `json:"remote_fetches" metric:"spmt_shard_remote_fetches_total" help:"Artifact images fetched from owning shards."`
	FetchMisses       uint64            `json:"fetch_misses" metric:"spmt_shard_fetch_misses_total" help:"Artifact fetches the owner could not serve."`
	FetchErrors       uint64            `json:"fetch_errors" metric:"-"`
	FetchErrorReasons map[string]uint64 `json:"fetch_error_reasons,omitempty" metric:"spmt_shard_fetch_errors_total,reason" help:"Artifact fetch failures by cause (transport vs decode)."`
	// ArtifactsServed counts artifact images this node served to
	// peers.
	ArtifactsServed uint64 `json:"artifacts_served" metric:"spmt_shard_artifacts_served_total" help:"Artifact images served to peers."`
	// Replication is the R=2 write-through / sweep view.
	Replication ReplicationStats `json:"replication"`
	// Breaker is the per-peer circuit-breaker view.
	Breaker BreakerStats `json:"breaker"`
}

// Cluster is one node's view of the shard cluster: the live member
// ring, this node's own URL, and the peer HTTP clients. Safe for
// concurrent use.
type Cluster struct {
	self         string
	vnodes       int
	replicas     int
	retryBackoff time.Duration
	clients      [numClasses]*http.Client
	breaker      *breaker

	// mu guards the membership view: the member list, the full ring
	// over it, the suspect set, and the effective ring (full minus
	// suspects) that ownership and replica placement actually use.
	mu        sync.RWMutex
	epoch     uint64
	members   []string
	suspects  map[string]bool
	full      *Ring
	effective *Ring
	onChange  func(ChangeReason)

	ringVersion atomic.Uint64

	proxied            atomic.Uint64
	proxyFallbacks     atomic.Uint64
	batchFanouts       atomic.Uint64
	batchFallbackSpecs atomic.Uint64
	remoteFetches      atomic.Uint64
	fetchMisses        atomic.Uint64
	fetchErrors        atomic.Uint64
	artifactsServed    atomic.Uint64

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	suspicions    atomic.Uint64
	readmissions  atomic.Uint64
	retries       atomic.Uint64
	retryHits     atomic.Uint64

	replPushed      atomic.Uint64
	replPushErrors  atomic.Uint64
	replPushSkipped atomic.Uint64
	replDropped     atomic.Uint64
	replPending     atomic.Int64
	replReceived    atomic.Uint64
	replDuplicate   atomic.Uint64
	sweeps          atomic.Uint64
	sweepKeys       atomic.Uint64
	sweepPushed     atomic.Uint64
	sweepErrors     atomic.Uint64
	lastSweepEpoch  atomic.Uint64

	// Reason splits are mutex-guarded maps rather than per-reason
	// atomics: fallbacks are the degraded path, orders of magnitude
	// rarer than the atomic counters above.
	reasonMu            sync.Mutex
	proxyFallbackReason map[FallbackReason]uint64
	batchFallbackReason map[FallbackReason]uint64
	fetchErrorReason    map[FetchErrorReason]uint64
}

// normalizeNode validates and canonicalises one member URL.
func normalizeNode(raw string) (string, error) {
	s := strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("shard: bad node URL %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("shard: node URL %q must be http(s)://host[:port]", raw)
	}
	return s, nil
}

// New builds one node's cluster view over the boot-time member list
// (membership epoch 1). self must appear in members (URLs are compared
// after trimming trailing slashes). Unlike the frozen-ring versions of
// this package, members is only the STARTING view: joins, leaves, and
// gossip move it forward, and the health prober may temporarily
// exclude unresponsive peers from the effective ring. A node booting
// with only itself can acquire the rest via JoinVia.
func New(self string, members []string, opts Options) (*Cluster, error) {
	selfN, err := normalizeNode(self)
	if err != nil {
		return nil, err
	}
	norm := make([]string, 0, len(members))
	found := false
	for _, m := range members {
		n, err := normalizeNode(m)
		if err != nil {
			return nil, err
		}
		norm = append(norm, n)
		found = found || n == selfN
	}
	if !found {
		return nil, fmt.Errorf("shard: self %q is not in the member list %v", selfN, norm)
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	vn := opts.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	c := &Cluster{
		self:                selfN,
		vnodes:              vn,
		replicas:            opts.Replicas,
		retryBackoff:        opts.RetryBackoff,
		suspects:            make(map[string]bool),
		proxyFallbackReason: make(map[FallbackReason]uint64),
		batchFallbackReason: make(map[FallbackReason]uint64),
		fetchErrorReason:    make(map[FetchErrorReason]uint64),
		clients:             newClients(opts.WrapTransport),
	}
	bf := opts.BreakerFailures
	if bf == 0 {
		bf = 5
	}
	c.breaker = newBreaker(bf, opts.BreakerCooldown)
	c.epoch = 1
	c.members = NewRing(norm, 1).Nodes() // sorted, deduped
	c.rebuildLocked()
	return c, nil
}

// Self returns this node's URL.
func (c *Cluster) Self() string { return c.self }

// Members returns the current member URLs, sorted.
func (c *Cluster) Members() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.full.Nodes()
}

// Ring returns the current EFFECTIVE ownership ring (members minus
// suspects). The returned ring is immutable; callers needing a
// consistent multi-key view should hold onto one snapshot.
func (c *Cluster) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.effective
}

// Owner returns the node owning the artifact key on the effective
// ring.
func (c *Cluster) Owner(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.effective.Owner(key)
}

// Owns reports whether this node owns the artifact key.
func (c *Cluster) Owns(key string) bool { return c.Owner(key) == c.self }

// Stats snapshots the shard counters.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	members := c.full.Nodes()
	epoch := c.epoch
	vnodes := c.vnodes
	c.mu.RUnlock()
	s := Stats{
		Self:               c.self,
		Members:            members,
		VNodes:             vnodes,
		Epoch:              epoch,
		RingVersion:        c.ringVersion.Load(),
		Replicas:           c.replicas,
		Suspects:           c.Suspects(),
		Probes:             c.probes.Load(),
		ProbeFailures:      c.probeFailures.Load(),
		Suspicions:         c.suspicions.Load(),
		Readmissions:       c.readmissions.Load(),
		PeerRetries:        c.retries.Load(),
		PeerRetrySuccesses: c.retryHits.Load(),
		Proxied:            c.proxied.Load(),
		ProxyFallbacks:     c.proxyFallbacks.Load(),
		BatchFanouts:       c.batchFanouts.Load(),
		BatchFallbackSpecs: c.batchFallbackSpecs.Load(),
		RemoteFetches:      c.remoteFetches.Load(),
		FetchMisses:        c.fetchMisses.Load(),
		FetchErrors:        c.fetchErrors.Load(),
		ArtifactsServed:    c.artifactsServed.Load(),
		Replication: ReplicationStats{
			Pushed:            c.replPushed.Load(),
			PushErrors:        c.replPushErrors.Load(),
			PushSkipped:       c.replPushSkipped.Load(),
			Dropped:           c.replDropped.Load(),
			Pending:           c.replPending.Load(),
			Received:          c.replReceived.Load(),
			ReceivedDuplicate: c.replDuplicate.Load(),
			Sweeps:            c.sweeps.Load(),
			SweepKeys:         c.sweepKeys.Load(),
			SweepPushed:       c.sweepPushed.Load(),
			SweepErrors:       c.sweepErrors.Load(),
			LastSweepEpoch:    c.lastSweepEpoch.Load(),
		},
		Breaker: c.breaker.stats(),
	}
	if len(s.Suspects) == 0 {
		s.Suspects = nil
	}
	c.reasonMu.Lock()
	s.ProxyFallbackReasons = reasonCounts(fallbackReasons, c.proxyFallbackReason)
	s.BatchFallbackReasons = reasonCounts(fallbackReasons, c.batchFallbackReason)
	s.FetchErrorReasons = reasonCounts(fetchErrorReasons, c.fetchErrorReason)
	c.reasonMu.Unlock()
	return s
}

// reasonCounts copies a reason split for Stats, seeded with every
// declared reason at 0.
func reasonCounts[R ~string](declared []R, m map[R]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(declared))
	for _, r := range declared {
		out[string(r)] = 0
	}
	for r, n := range m {
		out[string(r)] = n
	}
	return out
}

// NoteProxyFallback records a failed forward answered locally.
func (c *Cluster) NoteProxyFallback(reason FallbackReason) {
	c.proxyFallbacks.Add(1)
	c.reasonMu.Lock()
	c.proxyFallbackReason[reason]++
	c.reasonMu.Unlock()
}

// NoteBatchFanout records one sub-batch sent to an owning shard.
func (c *Cluster) NoteBatchFanout() { c.batchFanouts.Add(1) }

// NoteBatchFallback records n batch specs recomputed locally.
func (c *Cluster) NoteBatchFallback(n int, reason FallbackReason) {
	if n <= 0 {
		return
	}
	c.batchFallbackSpecs.Add(uint64(n))
	c.reasonMu.Lock()
	c.batchFallbackReason[reason] += uint64(n)
	c.reasonMu.Unlock()
}

// NoteArtifactServed records one artifact image served to a peer.
func (c *Cluster) NoteArtifactServed() { c.artifactsServed.Add(1) }

// NoteFetchError records one artifact-fetch failure by cause.
func (c *Cluster) NoteFetchError(reason FetchErrorReason) {
	c.fetchErrors.Add(1)
	c.reasonMu.Lock()
	c.fetchErrorReason[reason]++
	c.reasonMu.Unlock()
}

// NoteReplicaReceived records one pushed artifact image accepted
// (stored) or deduplicated (already resident).
func (c *Cluster) NoteReplicaReceived(stored bool) {
	if stored {
		c.replReceived.Add(1)
	} else {
		c.replDuplicate.Add(1)
	}
}

// NoteSweep records one completed re-replication sweep over the given
// membership epoch.
func (c *Cluster) NoteSweep(epoch uint64, keys, pushed, skipped, errors uint64) {
	c.sweeps.Add(1)
	c.sweepKeys.Add(keys)
	c.sweepPushed.Add(pushed)
	c.replPushSkipped.Add(skipped)
	c.sweepErrors.Add(errors)
	c.lastSweepEpoch.Store(epoch)
}
