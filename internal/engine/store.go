// Artifact store: the engine memoizes job outputs in an in-memory
// byte-weighted LRU (Cache), optionally backed by a persistent DiskTier
// whose files survive a restart. A key is resolved in one order, by one
// walk per key:
//
//  1. memory — the only step taken without claiming the key;
//  2. the disk tier — its pending-write queue, then its file — with a
//     hit promoted into memory;
//  3. Options.Remote, for Exec only (see remote.go);
//  4. the admission gate and a fresh computation, for Exec only.
//
// Steps 2–4 run under the key's claim in Engine.inflight: the first
// caller walks, every concurrent caller joins its outcome. Peek and
// WarmFromDisk take steps 1–2 under the same claim, and Inject stores
// under it, so there is exactly one place a key gets its pointer.
// Stored artifacts are added to memory and queued for the disk tier's
// background writer; memory evictions are demoted onto disk.
package engine

// Codec translates artifacts to and from a self-describing byte form
// for the disk tier. Implementations live outside this package (see
// internal/engine/codec) so the engine stays independent of the
// artifact types it caches.
type Codec interface {
	// Encode renders v as (kind, payload). ok reports whether the codec
	// supports v's dynamic type — unsupported artifacts simply stay
	// memory-only.
	Encode(v any) (kind string, data []byte, ok bool, err error)
	// Decode reconstructs an artifact of the given kind from data.
	Decode(kind string, data []byte) (any, error)
}

// local walks the local tiers for a key the caller has claimed: a
// memory recheck (a racing resolver may have published between the
// caller's miss and its claim), then the disk tier, promoting a hit
// into memory. The recheck records no stats: the caller's own memory
// lookup already counted the miss.
func (e *Engine) local(key string) (v any, tier string, ok bool) {
	if v, ok := e.mem.lookup(key, false); ok {
		return v, "mem", true
	}
	if e.disk != nil {
		if v, ok := e.disk.Get(key); ok {
			e.mem.Add(key, v)
			return v, "disk", true
		}
	}
	return nil, "", false
}

// store adds an artifact to memory and queues it for the disk tier's
// background writer (when its type has a codec), so every stored
// artifact becomes durable without the encode+write riding the job's
// completion path. The queue never drops writes — a full queue blocks
// — so a flushed store is exactly what synchronous write-through would
// have produced.
func (e *Engine) store(key string, v any) {
	e.mem.Add(key, v)
	if e.disk != nil {
		e.disk.PutAsync(key, v)
	}
}

// claimLocal resolves key from the local tiers alone, under its claim.
// A key already in flight reports a miss: its resolver may be
// computing, and a local lookup never waits on a computation.
func (e *Engine) claimLocal(key string) (v any, tier string, ok bool) {
	c, leader := e.claim(key)
	if !leader {
		return nil, "", false
	}
	if v, tier, ok = e.local(key); ok {
		c.val = v
	} else {
		c.err = errUnresolved
	}
	e.publish(key, c)
	return v, tier, ok
}

// WarmFromDisk promotes disk-resident artifacts into the memory tier —
// the cold-start path for a server or CLI pointed at a warm store
// directory — and returns how many artifacts were loaded. Only the
// most-recently-used artifacts that fit the memory budget are decoded
// (file size approximates resident cost), so boot time scales with
// the memory tier, not the store directory; the selected set is then
// replayed least recently used first so recency ends hottest-first. A
// memory-only engine warms nothing.
func (e *Engine) WarmFromDisk() int {
	if e.disk == nil {
		return 0
	}
	entries := e.disk.Entries() // LRU first
	start := len(entries)
	var bytes int64
	for i := len(entries) - 1; i >= 0; i-- {
		bytes += entries[i].Bytes
		if (e.mem.maxBytes > 0 && bytes > e.mem.maxBytes) ||
			len(entries)-i > e.mem.capacity {
			break
		}
		start = i
	}
	n := 0
	for _, ent := range entries[start:] {
		if _, tier, _ := e.claimLocal(ent.Key); tier == "disk" {
			n++
		}
	}
	return n
}

// Peek returns the artifact under key from the local tiers only —
// never the remote fetcher, never by running a job. It is the lookup
// behind a shard's artifact-exchange endpoint, where consulting the
// remote would bounce a request between nodes that disagree about
// ownership instead of reporting a clean miss.
func (e *Engine) Peek(key string) (any, bool) {
	if key == "" {
		return nil, false
	}
	if v, ok := e.mem.Get(key); ok {
		return v, true
	}
	v, _, ok := e.claimLocal(key)
	return v, ok
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

// Has reports whether the artifact under key is resident in any local
// tier — memory, disk, or the disk tier's async-write queue — without
// decoding, promoting, or recording stats. It answers a peer's
// replication check (GET /v1/artifacts?check=1).
func (e *Engine) Has(key string) bool {
	if key == "" {
		return false
	}
	if _, ok := e.mem.lookup(key, false); ok {
		return true
	}
	return e.disk != nil && e.disk.HasOrPending(key)
}

// Inject stores an artifact a PEER computed — the receive side of R=2
// write-through replication — and reports whether it was stored (false
// when the key is already resident or being resolved here; an
// in-flight leader's own result supersedes the push, so accepting it
// would mint a second pointer for consumers the leader already
// served). The value is stored under the key's claim like any computed
// artifact: memory tier plus async disk write-through.
func (e *Engine) Inject(key string, v any) bool {
	if key == "" || v == nil {
		return false
	}
	c, leader := e.claim(key)
	if !leader {
		return false
	}
	stored := !e.Has(key)
	if stored {
		e.store(key, v)
		c.val = v
	} else {
		c.err = errUnresolved
	}
	e.publish(key, c)
	return stored
}

// Drop discards the artifact stored under key from every local tier —
// memory and disk, with the async write queue flushed first so an
// earlier write-through cannot resurrect the key — and reports whether
// any tier held it. Drop waits out an in-flight resolution of the key
// and then holds the key's claim, so nothing can store the key
// mid-drop. It exists for tests and cache-invalidation tooling; it
// does not touch remote replicas.
func (e *Engine) Drop(key string) bool {
	c, leader := e.claim(key)
	for !leader {
		<-c.done
		c, leader = e.claim(key)
	}
	dropped := e.mem.Remove(key)
	if e.disk != nil {
		e.disk.Flush()
		dropped = e.disk.Remove(key) || dropped
	}
	c.err = errUnresolved
	e.publish(key, c)
	return dropped
}
