package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"

	"objinline"
)

// cacheKey is the content address of one compilation: SHA-256 over the
// canonical config fingerprint, the filename (it appears in diagnostics
// and source positions, so it is part of the result), and the source
// text, with NUL separators so no field can masquerade as another.
func cacheKey(cfg objinline.Config, filename, source string) string {
	h := sha256.New()
	h.Write([]byte(cfg.Fingerprint()))
	h.Write([]byte{0})
	h.Write([]byte(filename))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// nativeRunKey is the content address of one native execution: the
// compilation it runs (already content-addressed by cacheKey) plus every
// request knob that shapes the native response — repetitions and whether
// the output rides along. The engine name is baked into the prefix, so
// native results can never collide with compile entries even if the two
// caches were ever merged.
func nativeRunKey(compileKey string, reps int, includeOutput bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "native-run\x00%s\x00%d\x00%t", compileKey, reps, includeOutput)
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one cached compilation result. The leader that created it
// fills the result fields and closes done; every other request for the
// same key waits on done and reads them. The stored body is the compile
// endpoint's exact response bytes, so warm responses are byte-identical
// to the cold one.
type entry struct {
	key  string
	done chan struct{}

	// Result, immutable after done closes.
	status int    // HTTP status of the compile response
	body   []byte // serialized compile envelope, written verbatim on hits
	prog   *objinline.Program
	stats  objinline.CompileStats

	// runMu serializes profiled runs of prog: Program keeps the last
	// profile as state, so profile extraction must not interleave.
	// Unprofiled runs touch no shared Program state and need no lock.
	runMu sync.Mutex

	// fromDisk marks an entry seeded from the persistent cache tier: it
	// holds the response bytes but no *Program (replay works; explain and
	// run first upgrade it by recompiling — see Server.entryProgram).
	// progMu serializes that lazy upgrade, and every prog access on a
	// fromDisk entry goes through it: the entry's done channel closed at
	// seed time, so the usual done-close happens-before edge does not
	// cover the later prog write.
	fromDisk bool
	progMu   sync.Mutex
}

// failed reports whether the entry holds diagnostics instead of a
// successful compilation. Status, not prog, is the test: a disk-seeded
// success has no program until first use.
func (e *entry) failed() bool { return e.status != http.StatusOK }

// cache is the content-addressed result cache: an LRU bound over
// singleflight entries. Claiming a key either returns the existing entry
// (a hit — possibly still in flight, in which case the caller waits on
// done) or installs a fresh one and names the caller its leader.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // of *entry
	order   *list.List               // front = most recently used

	hits, misses, evictions int64
}

func newCache(maxEntries int) *cache {
	return &cache{
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// claim returns the entry for key, creating it when absent. leader is
// true when the caller installed the entry and must compile, fill it, and
// close done; false means another request is (or was) the leader and the
// caller just waits. Creation evicts the least recently used entry beyond
// the bound.
func (c *cache) claim(key string) (e *entry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*entry), false
	}
	c.misses++
	e = &entry{key: key, done: make(chan struct{})}
	c.entries[key] = c.order.PushFront(e)
	c.evictLocked()
	return e, true
}

// evictLocked drops least recently used entries beyond the bound.
func (c *cache) evictLocked() {
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		c.evictions++
	}
}

// drop removes e so future requests for its key start fresh. The leader
// calls it when its compile did not produce a cacheable result — it was
// canceled at the deadline or shed under load — because caching those
// would poison the key: deterministic compile *errors* stay cached,
// transient conditions must not.
func (c *cache) drop(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value.(*entry) == e {
		c.order.Remove(el)
		delete(c.entries, e.key)
	}
}

// seed installs a completed entry replayed from the disk tier: done is
// already closed, the body replays verbatim, and no program is attached
// (entryProgram upgrades on demand). A later record for the same key
// overwrites the earlier one — WAL replay order is oldest-first, so the
// newest copy wins. Seeding counts as neither hit nor miss and respects
// the LRU bound like any insert.
func (c *cache) seed(key string, status int, body []byte) {
	done := make(chan struct{})
	close(done)
	e := &entry{key: key, done: done, status: status, body: body, fromDisk: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(e)
	c.evictLocked()
}

// live returns the completed entries in LRU order (least recently used
// first, so disk replay restores recency) — the disk tier's compaction
// input. In-flight entries are skipped: their result fields are not
// readable yet.
func (c *cache) live() []*entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*entry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		select {
		case <-e.done:
			out = append(out, e)
		default:
		}
	}
	return out
}

// cacheStats is one consistent read of a cache for the metrics endpoint.
type cacheStats struct {
	entries                 int
	hits, misses, evictions int64
	// bytes sums the completed entries' response bodies: the occupancy
	// signal behind the entry count. O(entries), bounded by the LRU max.
	bytes int64
}

func (c *cache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := cacheStats{entries: c.order.Len(), hits: c.hits, misses: c.misses, evictions: c.evictions}
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		// Only completed entries: body is written before done closes, so
		// reading it earlier would race with the leader.
		select {
		case <-e.done:
			st.bytes += int64(len(e.body))
		default:
		}
	}
	return st
}
