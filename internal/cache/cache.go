// Package cache models the paper's per-thread-unit first-level data
// cache (HPCA'02 §4.1): 32KB, 2-way set associative, 32-byte blocks,
// non-blocking with up to 4 outstanding misses, 3-cycle hits and
// 8-cycle misses, LRU replacement.
package cache

// Config sizes the cache. The zero value is replaced by the paper's
// parameters.
type Config struct {
	SizeBytes  int   // total capacity (default 32KB)
	Ways       int   // associativity (default 2)
	BlockBytes int   // line size (default 32)
	HitLat     int64 // cycles for a hit (default 3)
	MissLat    int64 // cycles for a miss (default 8)
	MSHRs      int   // outstanding misses (default 4)
}

func (c Config) withDefaults() Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 32 << 10
	}
	if c.Ways == 0 {
		c.Ways = 2
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 32
	}
	if c.HitLat == 0 {
		c.HitLat = 3
	}
	if c.MissLat == 0 {
		c.MissLat = 8
	}
	if c.MSHRs == 0 {
		c.MSHRs = 4
	}
	return c
}

type line struct {
	tag   uint64
	valid bool
	lru   uint64
}

// Cache is a set-associative non-blocking cache model. It tracks only
// tags and timing — data values come from the trace.
type Cache struct {
	cfg       Config
	sets      [][]line
	setMask   uint64
	setBits   uint
	blockBits uint
	tick      uint64  // LRU clock
	mshr      []int64 // completion cycle of each outstanding miss
	// Stats
	Hits, Misses, MSHRStalls uint64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	if nSets < 1 {
		nSets = 1
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockBytes {
		blockBits++
	}
	setBits := uint(0)
	for 1<<setBits < nSets {
		setBits++
	}
	// One backing array for every set: a cache is built per thread
	// unit per simulation, and 512 small allocations each time add up.
	lines := make([]line, nSets*cfg.Ways)
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(nSets - 1),
		setBits:   setBits,
		blockBits: blockBits,
		mshr:      make([]int64, cfg.MSHRs),
	}
}

// Access simulates an access issued at cycle `now` and returns the
// cycle at which the data is available. Misses allocate the line and an
// MSHR; when all MSHRs are busy the miss waits for the earliest one.
func (c *Cache) Access(addr uint64, now int64) int64 {
	block := addr >> c.blockBits
	set := c.sets[block&c.setMask]
	tag := block >> c.setBits
	c.tick++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			c.Hits++
			return now + c.cfg.HitLat
		}
	}
	c.Misses++

	// MSHR allocation: take the earliest-free slot.
	slot, best := 0, c.mshr[0]
	for i, t := range c.mshr {
		if t < best {
			slot, best = i, t
		}
	}
	start := now
	if best > now {
		start = best // all MSHRs busy: wait for one to free
		c.MSHRStalls++
	}
	done := start + c.cfg.MissLat
	c.mshr[slot] = done

	// Fill: replace LRU way.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
	return done
}

// Contains reports whether the block holding addr is resident (for
// tests).
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockBits
	set := c.sets[block&c.setMask]
	tag := block >> c.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}
