// Remote artifact fetch: a clustered engine consults a RemoteFetcher
// as the third step of a key's lookup (after memory and the disk tier,
// before computing), so an artifact another shard already computed is
// transferred (one codec decode) instead of re-derived (emulation,
// factorisation, simulation). The fetch runs under the key's claim,
// like the rest of the walk: concurrent misses share one fetch and
// one decoded pointer, and the fetched artifact is stored like a
// computed one — memory tier plus write-through to the disk tier.
package engine

import "context"

// RemoteFetcher fetches an artifact computed elsewhere (typically the
// owning shard of a cluster) by its content key. Implementations
// report ok=false for any failure — unknown key, unreachable peer,
// corrupt image — and the engine computes locally. Implementations
// must be safe for concurrent use, and must bound their own latency
// (the shard fetcher's per-attempt client timeout). The context carries trace
// identity for span recording and header propagation only — an
// implementation should detach the caller's cancellation
// (context.WithoutCancel) before any network call, because a fetch is
// shared by every concurrent miss on the key, not owned by the caller
// whose context happens to arrive first.
type RemoteFetcher interface {
	Fetch(ctx context.Context, key string) (any, bool)
}
