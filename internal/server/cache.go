package server

import (
	"container/list"
	"sort"
	"strconv"
	"sync"
)

// LRU is a thread-safe fixed-capacity LRU map from string keys to shared,
// read-only values: an evaluating node's result cache, from cache keys to
// query outcomes, and the fleet coordinator's kept shard replies. The query
// pipeline is deterministic for a fixed (query, options) pair, so a hit can
// be served verbatim: the cached value is exactly what re-running the query
// would produce.
type LRU struct {
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

// NewLRU returns a cache holding up to capacity entries; capacity <= 0
// disables caching (every lookup misses, every store is dropped).
func NewLRU(capacity int) *LRU {
	return &LRU{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU) Get(key string) (any, bool) {
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

// Put stores value under key, evicting the least recently used entry when
// the cache is full.
func (c *LRU) Put(key string, value any) {
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
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns (hits, misses).
func (c *LRU) Counters() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// genCounters tracks per-generation result-cache hit/miss counts,
// retaining the most recent maxTrackedGens generations.
type genCounters struct {
	mu sync.Mutex
	m  map[uint64]*hitMiss
}

// hitMiss is one generation's result-cache counters.
type hitMiss struct{ Hits, Misses int64 }

const maxTrackedGens = 16

func (g *genCounters) record(gen uint64, hit bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[uint64]*hitMiss)
	}
	c := g.m[gen]
	if c == nil {
		c = &hitMiss{}
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

// genCacheEntry is one generation's counters with its label pre-rendered,
// ordered for byte-stable /metrics exposition.
type genCacheEntry struct {
	Gen string
	hitMiss
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
		out = append(out, genCacheEntry{Gen: strconv.FormatUint(gen, 10), hitMiss: *g.m[gen]})
	}
	return out
}
