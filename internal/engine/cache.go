// Artifact cache: a thread-safe, content-keyed LRU memo for pipeline
// outputs (programs, traces, pruned CFGs, reach matrices, spawn tables,
// simulation results). Keys are produced by the job definitions from
// everything that determines the artifact's content — program name,
// size class, and a hash of the stage configuration — so a hit is
// guaranteed to be byte-identical to a recomputation.
//
// Eviction is cost-aware: artifacts that implement Sizer report their
// approximate resident bytes (traces are orders of magnitude heavier
// than tables), and the cache bounds total resident bytes in addition
// to the entry count, evicting least-recently-used entries until both
// budgets hold.
package engine

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"strconv"
	"strings"
	"sync"
)

// DefaultCacheEntries bounds the artifact cache when Options.CacheEntries
// is zero. The full evaluation needs ~8 benchmarks × (5 pipeline stages +
// ~5 tables + ~40 sim configs), so 4096 keeps every artifact of a full
// figure sweep resident with generous headroom.
const DefaultCacheEntries = 4096

// Sizer is implemented by artifacts that can report their approximate
// resident size. The cache uses it to weight LRU entries so a byte
// budget evicts one multi-megabyte trace instead of a thousand tables.
type Sizer interface {
	ApproxBytes() int64
}

// defaultEntryBytes is charged for artifacts that do not implement
// Sizer (small results, scalars).
const defaultEntryBytes = 1 << 10

// sizeOf returns the byte cost charged for an artifact. A Sizer that
// reports a non-positive size is charged the default: a negative size
// would corrupt the byte ledger (and a zero-byte entry would divide
// hit-rate math by zero), so it is logged and clamped, never trusted
// and never a panic.
func sizeOf(v any) int64 {
	if s, ok := v.(Sizer); ok {
		switch b := s.ApproxBytes(); {
		case b > 0:
			return b
		case b < 0:
			log.Printf("engine: %T reports negative ApproxBytes %d; charging default %d", v, b, defaultEntryBytes)
		}
	}
	return defaultEntryBytes
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits" metric:"spmt_store_hits_total,tier=mem" help:"Artifact store hits by tier."`
	Misses    uint64 `json:"misses" metric:"spmt_store_misses_total,tier=mem" help:"Artifact store misses by tier."`
	Evictions uint64 `json:"evictions" metric:"spmt_store_evictions_total,tier=mem" help:"Artifact store evictions by tier."`
	Entries   int    `json:"entries" metric:"spmt_store_entries,tier=mem" help:"Artifacts resident by tier."`
	Capacity  int    `json:"capacity" metric:"-"`
	// BytesResident is the approximate resident size of all entries;
	// BytesCapacity is the byte budget (0 = unbounded).
	BytesResident int64 `json:"bytes_resident" metric:"spmt_store_bytes_resident,tier=mem" help:"Approximate resident bytes by tier."`
	BytesCapacity int64 `json:"bytes_capacity,omitempty" metric:"spmt_store_bytes_capacity,tier=mem" help:"Byte budget by tier (0 = unbounded)."`
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64
}

// Cache is the in-memory LRU tier of the artifact store, shared by all
// workers of an Engine.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	maxBytes  int64 // 0 = unbounded
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	// onEvict, when set, receives every evicted entry after the cache
	// lock is released — an engine with a disk tier uses it to demote
	// evictions to disk.
	onEvict func(key string, val any)
}

// NewCache returns an empty cache holding at most capacity entries
// (capacity <= 0 selects DefaultCacheEntries) with no byte bound.
func NewCache(capacity int) *Cache { return NewCacheSized(capacity, 0) }

// NewCacheSized returns an empty cache bounded by both an entry count
// (capacity <= 0 selects DefaultCacheEntries) and an approximate
// resident-byte budget (maxBytes <= 0 means unbounded). The most
// recently used entry is always retained, even when it alone exceeds
// the byte budget.
func NewCacheSized(capacity int, maxBytes int64) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// OnEvict registers a callback receiving every entry the cache evicts.
// It is invoked after the cache lock is released, so the callback may
// freely call back into the cache or perform I/O (the disk tier's
// demotion path). Set it before the cache is shared across goroutines.
func (c *Cache) OnEvict(fn func(key string, val any)) { c.onEvict = fn }

// Get returns the artifact stored under key, marking it most recently
// used. The second result reports whether the key was present.
func (c *Cache) Get(key string) (any, bool) { return c.lookup(key, true) }

// lookup is Get with optional stats recording: a key's claimed walk
// re-checks membership without double-counting the caller's miss.
func (c *Cache) lookup(key string, record bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if record {
			c.misses++
		}
		return nil, false
	}
	if record {
		c.hits++
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Add stores an artifact, evicting the least recently used entries
// while the cache is over its entry or byte budget. Re-adding an
// existing key refreshes its value, cost, and recency.
func (c *Cache) Add(key string, val any) {
	bytes := sizeOf(val)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += bytes - ent.bytes
		ent.val, ent.bytes = val, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, bytes: bytes})
		c.bytes += bytes
	}
	evicted := c.evict()
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, ent := range evicted {
			c.onEvict(ent.key, ent.val)
		}
	}
}

// evict drops LRU entries until both budgets hold, always keeping the
// most recently used entry, and returns the dropped entries so Add can
// hand them to the eviction callback outside the lock. Callers must
// hold c.mu.
func (c *Cache) evict() []*cacheEntry {
	var evicted []*cacheEntry
	for c.ll.Len() > 1 &&
		(c.ll.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= ent.bytes
		c.evictions++
		if c.onEvict != nil {
			evicted = append(evicted, ent)
		}
	}
	return evicted
}

// Remove discards the entry stored under key, if present, and reports
// whether it was. Unlike eviction, removal does NOT invoke the OnEvict
// callback: the caller wants the artifact gone from the store, not
// demoted to the next tier.
func (c *Cache) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, key)
	c.bytes -= ent.bytes
	return true
}

// Len returns the number of resident artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the approximate resident size of all entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		Capacity:      c.capacity,
		BytesResident: c.bytes,
		BytesCapacity: c.maxBytes,
	}
}

// KeyHash folds arbitrary configuration values into a short stable hex
// digest for use inside cache keys. Callers pass every parameter that
// influences the artifact's content.
func KeyHash(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// ParseBytes parses a human byte size ("64MB", "1.5gb", "8192") into
// bytes. A bare number is bytes; suffixes B, KB, MB, GB, TB are powers
// of 1024 and case-insensitive.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("engine: empty byte size")
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "TB"):
		mult, t = 1<<40, t[:len(t)-2]
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(t, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("engine: bad byte size %q", s)
	}
	b := v * float64(mult)
	if b > math.MaxInt64 {
		return 0, fmt.Errorf("engine: byte size %q overflows int64", s)
	}
	return int64(b), nil
}
