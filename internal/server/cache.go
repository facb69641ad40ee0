package server

import (
	"container/list"
	"sync"

	"repro/internal/wire"
	"repro/lddp"
	"repro/lddp/api"
)

// DefaultCacheBytes bounds the result cache when Config.CacheBytes is
// zero: enough for a few dozen mid-size tables without letting repeated
// large solves crowd out the heap.
const DefaultCacheBytes = 64 << 20

// cacheEntryOverhead is the accounting cost of one entry beyond its
// cell payload (key, list element, map slot, strings).
const cacheEntryOverhead = 256

// cacheKey identifies one deterministic solve. Server workloads are
// declarative — (kind, seed, shape) rebuild the identical instance — so
// the key is the workload tuple plus everything else that reaches the
// executor: the dependency mask and the strategy.
// Inline cost payloads are content-addressed through their digest, so
// two different grids with the same shape never collide, and the kind
// string keeps equal seeds of different generators apart.
type cacheKey struct {
	kind       string
	seed       int64
	rows, cols int
	mask       lddp.DepMask
	strategy   string
	// inlineDigest is the word-FNV digest of the inline cost cells;
	// hasInline separates "no payload" from a payload digesting to zero.
	inlineDigest uint64
	hasInline    bool
}

// cacheEntry is one cached result: the row-major cells (owning the
// grid's backing slice — nothing mutates a result grid after Wait), the
// rendered digest, and the response echo fields.
type cacheEntry struct {
	key     cacheKey
	id      int64
	cells   []int64
	digest  string
	pattern string
	mask    string
	bytes   int64
}

// resultCache is a bounded, size-aware LRU over solve results. All
// methods are safe for concurrent use; a nil *resultCache (cache
// disabled) answers every lookup with a miss and drops every store.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent; values are *cacheEntry
	index    map[cacheKey]*list.Element

	hits, misses, bypasses, stores, evictions int64
}

// newResultCache returns a cache bounded to maxBytes of cell payload
// (plus per-entry overhead); maxBytes <= 0 returns nil (disabled).
func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[cacheKey]*list.Element),
	}
}

// keyForRequest builds the cache key of a validated request whose
// problem has been built (deps is the problem's normalized mask).
func keyForRequest(req *api.SolveRequest, deps lddp.DepMask) cacheKey {
	k := cacheKey{
		kind:     req.Workload.Kind,
		seed:     req.Workload.Seed,
		rows:     req.Rows,
		cols:     req.Cols,
		mask:     deps,
		strategy: req.Strategy,
	}
	if k.kind == "" {
		k.kind = api.KindMix
	}
	if k.strategy == "" {
		k.strategy = "auto"
	}
	if req.Workload.Cells != nil {
		h := wire.DigestInit()
		for _, row := range req.Workload.Cells {
			for _, v := range row {
				h = wire.DigestWord(h, uint64(v))
			}
		}
		k.inlineDigest = h
		k.hasInline = true
	}
	return k
}

// get returns the entry under k, promoting it to most-recent; nil on a
// miss. The returned entry is shared and must be treated read-only.
func (c *resultCache) get(k cacheKey) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// bypass records a lookup skipped under Cache-Control: no-cache.
func (c *resultCache) bypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bypasses++
	c.mu.Unlock()
}

// put inserts (or refreshes) an entry and evicts from the LRU tail
// until the cache fits its bound again. Entries larger than half the
// bound are not stored at all: one giant table must not wipe the cache.
func (c *resultCache) put(e *cacheEntry) {
	if c == nil {
		return
	}
	e.bytes = int64(len(e.cells))*8 + cacheEntryOverhead
	if e.bytes > c.maxBytes/2 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[e.key]; ok {
		// A concurrent solve of the same key got here first; keep the
		// incumbent (the results are identical by construction).
		c.ll.MoveToFront(el)
		return
	}
	c.index[e.key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	c.stores++
	for c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.index, victim.key)
		c.bytes -= victim.bytes
		c.evictions++
	}
}

// stats renders the counters as the metrics-snapshot section.
func (c *resultCache) stats() lddp.CacheSnapshot {
	if c == nil {
		return lddp.CacheSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return lddp.CacheSnapshot{
		Hits:          c.hits,
		Misses:        c.misses,
		Bypasses:      c.bypasses,
		Stores:        c.stores,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		CapacityBytes: c.maxBytes,
	}
}
