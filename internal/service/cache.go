package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"eventorder/internal/model"
	"eventorder/internal/traceio"
)

// resultCache is a byte-budgeted LRU over marshaled analysis results,
// keyed by a content hash of the execution plus the query descriptor. Two
// requests that submit the same execution (whether as a program that runs
// to the same trace, or as the serialized trace itself) with the same
// query options share one entry; the exponential search runs once.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions *Counter
	bytes, count            *Gauge
}

type cacheEntry struct {
	key  string
	body []byte
}

// cacheEntryOverhead is the heap one entry holds beyond its key and body
// bytes: the cacheEntry and its list.Element (48 B each after size-class
// rounding) plus the map slot, which costs 25–60 B depending on the map's
// load. Without it a 70-byte pair result costs about twice its charge and
// the byte budget does not bound memory.
const cacheEntryOverhead = 160

// entryCost is the budget charge of caching body under key: the body's
// capacity (what the heap retains), the key and the fixed per-entry
// overhead.
func entryCost(key string, body []byte) int64 {
	return int64(cap(body)) + int64(len(key)) + cacheEntryOverhead
}

func newResultCache(budget int64, m *Registry) *resultCache {
	return &resultCache{
		budget:    budget,
		order:     list.New(),
		entries:   map[string]*list.Element{},
		hits:      m.Counter(MetricCacheHits),
		misses:    m.Counter(MetricCacheMisses),
		evictions: m.Counter(MetricCacheEvictions),
		bytes:     m.Gauge(MetricCacheBytes),
		count:     m.Gauge(MetricCacheEntries),
	}
}

// get returns the cached body for key, marking it most recently used.
// Counts a hit or miss.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// put inserts body under key, evicting least-recently-used entries until
// the byte budget holds. Entries costing more than the whole budget are
// not cached. put is idempotent for an existing key.
func (c *resultCache) put(key string, body []byte) {
	size := entryCost(key, body)
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+size > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ev.key)
		c.used -= entryCost(ev.key, ev.body)
		c.evictions.Add(1)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	c.used += size
	c.bytes.Set(c.used)
	c.count.Set(int64(len(c.entries)))
	return
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// executionDigest hashes an execution's canonical serialization (the
// traceio wire form is deterministic: dense ids, sorted semaphore and
// event-variable names). The digest is the content address the cache and
// job ids build on.
func executionDigest(x *model.Execution) (string, error) {
	h := sha256.New()
	if err := traceio.SaveExecution(h, x); err != nil {
		return "", fmt.Errorf("service: hashing execution: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheKey combines the execution digest with the canonical query
// descriptor. Options that change answers (relation, pair, ignoreData)
// are part of the key; options that only bound effort (deadline, node
// budget) are not — a successful result is valid for every budget.
func cacheKey(digest, descriptor string) string {
	sum := sha256.Sum256([]byte(digest + "\x00" + descriptor))
	return hex.EncodeToString(sum[:])
}
