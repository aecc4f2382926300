// The result cache: content hash → translated function, with a
// self-checking twist. A compilation service that caches wrong code
// amplifies one bad translation into millions of bad responses, so
// every entry stores the FNV-64a checksum of its code bytes taken at
// insert time, and every read re-hashes the stored bytes before
// serving them. An entry whose bytes no longer match its checksum —
// torn write, bit rot, or the deliberate faultinject.InjectCachePoison
// — is counted, evicted and recompiled, never served.
package server

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// cacheEntry is one cached translation. code is the rendered LAI text
// of the translated function; the small result counters ride along so
// a hit reproduces the full response.
type cacheEntry struct {
	key      uint64 // result key, set by put
	code     []byte
	checksum uint64 // fnvSum(code) at insert time
	name     string
	moves    int
	instrs   int
	fellBack bool
	degraded bool
}

// fnvSum is the checksum used for both cache keys (over request
// content) and entry integrity (over result code).
func fnvSum(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// cache is a fixed-capacity LRU keyed by result key. All methods are
// safe for concurrent use. Lookups verify entry integrity; get never
// returns bytes that fail their checksum.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	order   *list.List // front = most recent; values are *cacheEntry
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &cache{
		cap:     capacity,
		entries: make(map[uint64]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the entry for key after re-verifying its checksum.
// poisoned reports an entry that existed but failed verification; it
// has already been evicted when get returns.
func (c *cache) get(key uint64) (e *cacheEntry, ok, poisoned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false, false
	}
	e = el.Value.(*cacheEntry)
	if fnvSum(e.code) != e.checksum {
		c.removeLocked(el)
		return nil, false, true
	}
	c.order.MoveToFront(el)
	return e, true, false
}

// put inserts (or replaces) the entry for key, evicting the least
// recently used entry beyond capacity.
func (c *cache) put(key uint64, e *cacheEntry) {
	e.key, e.checksum = key, fnvSum(e.code)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		c.removeLocked(c.order.Back())
	}
}

// contains reports residency without touching recency — the store's
// compaction liveness probe, which must not distort it.
func (c *cache) contains(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// len reports the live entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *cache) removeLocked(el *list.Element) {
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.order.Remove(el)
}

// tamper applies mutate to the stored code bytes of every entry, most
// recent first, until mutate reports success, and returns whether any
// entry was mutated. It deliberately does not touch the stored
// checksum — that is the point: it models an entry corrupted after
// insert, which the next get must detect. Test seam only (the
// fault-injection tests drive it with faultinject.InjectCachePoison);
// production code never calls it.
func (c *cache) tamper(mutate func([]byte) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		if mutate(el.Value.(*cacheEntry).code) {
			return true
		}
	}
	return false
}
