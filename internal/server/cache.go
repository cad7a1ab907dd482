package server

import (
	"container/list"
	"sort"
	"strconv"
	"sync"
)

// lruCache is a thread-safe fixed-capacity LRU map from result-cache keys
// to cached query outcomes. The query pipeline is deterministic for a fixed
// (query, options) pair, so a hit can be served verbatim: the cached value
// is exactly what re-running the query would produce.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits   int64
	misses int64
}

type lruEntry struct {
	key   string
	value any
}

// newLRUCache returns a cache holding up to capacity entries; capacity <= 0
// disables caching (every lookup misses, every store is dropped).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry).value, true
	}
	c.misses++
	return nil, false
}

// Peek reports whether key is cached without promoting the entry or
// touching the hit/miss counters — for speculative probes (the /batch
// all-members-cached check) that may not result in serving the entry.
func (c *lruCache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put stores value under key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).value = value
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&lruEntry{key: key, value: value})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns (hits, misses).
func (c *lruCache) Counters() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// genCounters tracks per-generation result-cache hit/miss counts,
// retaining the most recent maxTrackedGens generations.
type genCounters struct {
	mu sync.Mutex
	m  map[uint64]*GenCacheJSON
}

const maxTrackedGens = 16

func (g *genCounters) record(gen uint64, hit bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[uint64]*GenCacheJSON)
	}
	c := g.m[gen]
	if c == nil {
		c = &GenCacheJSON{}
		g.m[gen] = c
		for len(g.m) > maxTrackedGens {
			oldest := gen
			for k := range g.m { //pgvet:sorted min-find over keys; the result is order-insensitive
				if k < oldest {
					oldest = k
				}
			}
			delete(g.m, oldest)
		}
	}
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
}

func (g *genCounters) snapshot() map[string]GenCacheJSON {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]GenCacheJSON, len(g.m))
	for gen, c := range g.m { //pgvet:sorted builds a map rendered by encoding/json, which sorts keys
		out[strconv.FormatUint(gen, 10)] = *c
	}
	return out
}

// genCacheEntry is one generation's counters with its label pre-rendered,
// ordered for byte-stable /metrics exposition.
type genCacheEntry struct {
	Gen string
	GenCacheJSON
}

// snapshotSorted returns the tracked per-generation counters in ascending
// generation order. /metrics renders from this: Prometheus exposition is
// part of the byte-stable output contract, so emission order cannot
// depend on map iteration.
func (g *genCounters) snapshotSorted() []genCacheEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	gens := make([]uint64, 0, len(g.m))
	for gen := range g.m { //pgvet:sorted keys are collected then sorted immediately below
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	out := make([]genCacheEntry, 0, len(gens))
	for _, gen := range gens {
		out = append(out, genCacheEntry{Gen: strconv.FormatUint(gen, 10), GenCacheJSON: *g.m[gen]})
	}
	return out
}
