// Remote artifact fetch: a clustered engine consults a RemoteFetcher
// on every store miss before computing, so an artifact another shard
// already computed is transferred (one codec decode) instead of
// re-derived (emulation, factorisation, simulation). The hook layers
// over the tiered store — a fetched artifact is Added through it, so
// it lands in the memory tier and write-through makes it durable in
// the local disk tier like any locally-computed artifact.
package engine

import (
	"context"
	"sync"
)

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

// remoteStore is the remote-fetch stage Exec consults between a local
// store miss and a fresh computation.
type remoteStore struct {
	local  Store
	remote RemoteFetcher
	// Fetch-and-add is serialised PER KEY (a fetch is a network round
	// trip that can run for seconds — a global mutex here would stall
	// every unrelated store miss in the process behind one slow
	// owner): concurrent misses on one key decode a fetched image once
	// and observe a single pointer, the identity guarantee the tiered
	// store's promotion path provides, extended over the network.
	mu       sync.Mutex
	inflight map[string]*fetchCall
}

type fetchCall struct {
	done chan struct{}
	v    any
	ok   bool
}

func newRemoteStore(local Store, remote RemoteFetcher) *remoteStore {
	return &remoteStore{local: local, remote: remote, inflight: make(map[string]*fetchCall)}
}

// Fetch resolves key via the remote fetcher, deduplicating concurrent
// misses on the key and publishing a successful fetch through the
// local store tiers.
func (s *remoteStore) Fetch(ctx context.Context, key string) (any, bool) {
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.v, c.ok
	}
	c := &fetchCall{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()
	// A concurrent caller may have fetched (or a compute leader
	// completed and published) between our miss and the registration.
	if v, ok := s.local.Recheck(key); ok {
		c.v, c.ok = v, true
	} else if v, ok := s.remote.Fetch(ctx, key); ok {
		s.local.Add(key, v)
		c.v, c.ok = v, true
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.v, c.ok
}

// Peek returns the artifact under key from the local store tiers only
// — never the remote fetcher, never by running a job. It is the
// lookup behind a shard's artifact-exchange endpoint, where consulting
// the remote would bounce a request between nodes that disagree about
// ownership instead of reporting a clean miss.
func (e *Engine) Peek(key string) (any, bool) {
	if key == "" {
		return nil, false
	}
	return e.local.Get(key)
}

// PeekMemory is Peek restricted to the memory tier (no disk read, no
// promotion, no stats).
func (e *Engine) PeekMemory(key string) (any, bool) {
	if key == "" {
		return nil, false
	}
	return e.mem.Recheck(key)
}

// Has reports whether the artifact under key is resident in any local
// tier — memory, disk, or the disk tier's async-write queue — without
// decoding, promoting, or recording stats. It answers a peer's
// replication check (GET /v1/artifacts?check=1).
func (e *Engine) Has(key string) bool {
	if key == "" {
		return false
	}
	if _, ok := e.mem.Recheck(key); ok {
		return true
	}
	return e.disk != nil && e.disk.HasOrPending(key)
}

// Inject stores an artifact a PEER computed — the receive side of R=2
// write-through replication — and reports whether it was stored (false
// when the key is already resident or being computed here; the
// in-flight leader's own persist supersedes the push, so accepting it
// would mint a second pointer for consumers the leader already
// served). The value lands through the tiered store like any computed
// artifact: memory tier plus async disk write-through.
func (e *Engine) Inject(key string, v any) bool {
	if key == "" || v == nil {
		return false
	}
	e.mu.Lock()
	_, busy := e.inflight[key]
	e.mu.Unlock()
	if busy {
		return false
	}
	if e.Has(key) {
		return false
	}
	e.local.Add(key, v)
	return true
}

// PeekImage returns the already-encoded disk image of a disk-resident
// artifact (kind tag + payload) without decoding it or promoting it
// into the memory tier. A memory-only engine, a memory-only key, or a
// queued-but-unwritten artifact reports false; callers then encode via
// Peek.
func (e *Engine) PeekImage(key string) (kind string, data []byte, ok bool) {
	if key == "" || e.disk == nil {
		return "", nil, false
	}
	return e.disk.Image(key)
}
