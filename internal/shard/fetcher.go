// Fetcher plugs the artifact exchange into the engine: wired to
// engine.Options.Remote, it is consulted on every store miss and
// transfers the owning shard's disk-tier artifact image instead of
// recomputing it locally. Keys this node owns are never fetched (the
// owner is the node expected to compute them), and only kinds the
// codec can carry over the wire are attempted, so composite memory-only
// artifacts cost no round trip.
package shard

import (
	"context"
	"log/slog"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
)

// fetchableKinds lists the job-key prefixes (engine.JobKind) whose
// artifacts have a binary codec and are therefore worth a network
// round trip. "bench" composites are memory-only and reassembled
// cheaply from these stages, so they are deliberately absent.
var fetchableKinds = map[string]bool{
	"program": true,
	"emu":     true,
	"cfg":     true,
	"reach":   true,
	"table":   true,
	"heur":    true,
	"sim":     true,
}

// Fetcher implements engine.RemoteFetcher over a Cluster.
type Fetcher struct {
	cluster *Cluster
	codec   engine.Codec
}

// NewFetcher builds the engine remote-fetch hook for one node. The
// codec must match the one the peers' artifact endpoints encode with
// (in practice: internal/engine/codec.New on every node).
func NewFetcher(cluster *Cluster, codec engine.Codec) *Fetcher {
	return &Fetcher{cluster: cluster, codec: codec}
}

// Fetch walks the key's non-self owners (Cluster.WalkOwners: the
// first, then at most one replica), asking each for the artifact image
// and decoding the first answer. Any exhausted walk — unreachable
// owners, owner misses, corrupt images — is reported as a miss so the
// engine simply computes the artifact locally; a degraded cluster
// loses transfer efficiency, never answers.
//
// The caller's context contributes trace identity only: the network
// calls run detached from its cancellation (context.WithoutCancel),
// because the engine shares one in-flight fetch between every
// concurrent miss on the key — the first caller hanging up must not
// kill the fetch the others are still waiting on. The fetch client's
// own timeout bounds each attempt instead.
func (f *Fetcher) Fetch(ctx context.Context, key string) (any, bool) {
	kind := engine.JobKind(key)
	if !fetchableKinds[kind] {
		return nil, false
	}
	if len(f.cluster.PeerOwners(key)) == 0 {
		return nil, false
	}
	span, ctx := obs.StartSpan(ctx, "fetch "+kind, obs.A("key", key))
	defer span.End()
	ctx = context.WithoutCancel(ctx)
	var v any
	ok := f.cluster.WalkOwners(ctx, key, func(peer string) bool {
		var hit bool
		v, hit = f.fetchFrom(ctx, span, key, peer)
		return hit
	})
	return v, ok
}

// fetchFrom attempts one peer.
func (f *Fetcher) fetchFrom(ctx context.Context, span *obs.Span, key, peer string) (any, bool) {
	wireKind, data, ok, err := f.cluster.FetchArtifact(ctx, peer, key)
	if err != nil {
		f.cluster.NoteFetchError(FetchErrTransport)
		span.SetAttr("outcome", "error")
		slog.Warn("shard: artifact fetch failed",
			"key", key, "peer", peer, "err", err, "trace", obs.TraceIDFrom(ctx))
		return nil, false
	}
	if !ok {
		f.cluster.fetchMisses.Add(1)
		span.SetAttr("outcome", "miss")
		return nil, false
	}
	v, err := f.codec.Decode(wireKind, data)
	if err != nil {
		f.cluster.NoteFetchError(FetchErrDecode)
		span.SetAttr("outcome", "error")
		slog.Warn("shard: fetched artifact image undecodable",
			"key", key, "kind", wireKind, "peer", peer, "err", err, "trace", obs.TraceIDFrom(ctx))
		return nil, false
	}
	f.cluster.remoteFetches.Add(1)
	span.SetAttr("outcome", "hit")
	span.SetAttr("peer", peer)
	span.SetAttr("bytes", strconv.Itoa(len(data)))
	return v, true
}
