package simt

// Read-only data cache, modeled after the texture/read-only caches GPU
// graph codes lean on: per-SM, set-associative with LRU replacement, caching
// SegmentBytes-sized lines of global memory. Disabled by default
// (Config.CacheLines == 0) so the core results match the cache-less GT200
// global-memory path; the A3 ablation turns it on.
//
// Only loads consult the cache. Stores and atomics bypass and invalidate
// (write-invalidate keeps the functional model trivially coherent; the
// performance effect of invalidation traffic is second-order for the
// read-dominated kernels studied here).

// cacheConfig fields live in Config:
//   CacheLines int   — total lines per SM (0 = disabled)
//   CacheWays  int   — associativity (default 4)
//   CacheHitLatency int64 — hit latency (default 40)

type smCache struct {
	ways  int
	sets  int
	tags  [][]uint64 // [set][way], segment number + 1 (0 = empty)
	order [][]int64  // LRU stamps
	tick  int64
}

func newSMCache(lines, ways int) *smCache {
	if ways < 1 {
		ways = 1
	}
	if ways > lines {
		ways = lines
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &smCache{ways: ways, sets: sets}
	c.tags = make([][]uint64, sets)
	c.order = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.order[i] = make([]int64, ways)
	}
	return c
}

// access looks up one segment, inserting it on miss. Returns hit.
func (c *smCache) access(segment uint64) bool {
	c.tick++
	set := int(segment % uint64(c.sets))
	key := segment + 1
	tags := c.tags[set]
	order := c.order[set]
	victim := 0
	for w, tag := range tags {
		if tag == key {
			order[w] = c.tick
			return true
		}
		if order[w] < order[victim] {
			victim = w
		}
	}
	tags[victim] = key
	order[victim] = c.tick
	return false
}

// invalidate drops a segment if present (store/atomic write-invalidate).
func (c *smCache) invalidate(segment uint64) {
	set := int(segment % uint64(c.sets))
	key := segment + 1
	for w, tag := range c.tags[set] {
		if tag == key {
			c.tags[set][w] = 0
			c.order[set][w] = 0
		}
	}
}

// reset empties the cache, as a new one is.
func (c *smCache) reset() {
	for i := range c.tags {
		clear(c.tags[i])
		clear(c.order[i])
	}
	c.tick = 0
}
