package core

import (
	"sync"
	"sync/atomic"

	"microlink/internal/kb"
)

// interestCache memoises raw S_in(u, e) values (Eq. 8 before the
// candidate-set normalisation of ScoreCandidates) so repeat mentions of hot
// entities skip the reachability averaging entirely. It is sharded to keep
// lock contention off the concurrent batch pipeline and generation-stamped
// so invalidation is O(1): instead of walking the shards, Feedback bumps the
// per-entity generation and UpdateReachability (an arena install) bumps the
// global one, and stale entries simply stop matching on lookup.
//
// Correctness contract (see DESIGN.md "Interest cache"):
//
//   - An entry is keyed by (user, entity) and additionally stamped with a
//     hash of the candidate set it was computed against, because Eq. 8's
//     influential-user truncation depends on the competing candidates E_m.
//     A lookup with a different candidate set misses.
//   - Entries are read and written while holding the linker's scoring read
//     lock; invalidation bumps happen under the write lock (Feedback) or
//     via InvalidateReachability. A scorer therefore never stores a value
//     computed from pre-invalidation state after the bump: the generation
//     read, the computation, and the store all sit inside one read-locked
//     critical section.
//   - Invalidation follows the influence cache: a posting on e invalidates
//     (·, e′) for each e′ whose set Invalidate(e) dropped. A reachability
//     change (a rebuilt arena carrying new follow edges) can move any
//     user's interest in any entity, so it bumps the global generation and
//     empties the cache logically.
type interestCache struct {
	global atomic.Uint64   // bumped when reachability changes
	entGen []atomic.Uint64 // per-entity generation, bumped by Feedback

	shards      [interestCacheShards]interestShard
	maxPerShard int
}

const interestCacheShards = 16

// cacheEntriesPerShard bounds cache memory to ~64k entries total (each
// entry is a few words: well under 4 MB).
const cacheEntriesPerShard = 4096

type interestKey struct {
	u kb.UserID
	e kb.EntityID
}

type interestEntry struct {
	global uint64  // cache.global at compute time
	entity uint64  // cache.entGen[e] at compute time
	set    uint64  // candidate-set hash the value was computed against
	val    float64 // raw S_in(u, e), pre-floor and pre-normalisation
}

type interestShard struct {
	mu sync.RWMutex                  // microlint:lock-order interest-shard
	m  map[interestKey]interestEntry // microlint:guarded-by mu
}

func newInterestCache(numEntities, maxPerShard int) *interestCache {
	c := &interestCache{
		entGen:      make([]atomic.Uint64, numEntities),
		maxPerShard: maxPerShard,
	}
	for i := range c.shards {
		//nolint:microlint/lockcheck -- cache not yet published; no other goroutine can hold a reference
		c.shards[i].m = make(map[interestKey]interestEntry)
	}
	return c
}

// shard picks the shard for a key by mixing both halves; Fibonacci hashing
// spreads the dense small IDs of the synthetic worlds evenly.
//
// microlint:noalloc
func (c *interestCache) shard(k interestKey) *interestShard {
	h := (uint64(uint32(k.u))*0x9e3779b97f4a7c15 ^ uint64(uint32(k.e))*0xff51afd7ed558ccd) >> 32
	return &c.shards[h%interestCacheShards]
}

// get returns the cached raw interest value, or ok=false when the entry is
// absent, stamped for a different candidate set, or invalidated. The hit
// path is allocation-free: value key, sharded map read, atomic stamps.
//
// microlint:noalloc
func (c *interestCache) get(u kb.UserID, e kb.EntityID, setHash uint64) (float64, bool) {
	if c == nil || int(e) >= len(c.entGen) {
		return 0, false
	}
	k := interestKey{u: u, e: e}
	sh := c.shard(k)
	sh.mu.RLock()
	ent, ok := sh.m[k]
	sh.mu.RUnlock()
	if !ok || ent.set != setHash ||
		ent.global != c.global.Load() || ent.entity != c.entGen[e].Load() {
		return 0, false
	}
	return ent.val, true
}

// put stores a freshly computed raw interest value stamped with the current
// generations. A full shard is emptied wholesale before insertion — crude,
// but O(1) amortised, allocation-free on the hit path, and the cache is a
// pure accelerator: losing entries only costs recomputation.
func (c *interestCache) put(u kb.UserID, e kb.EntityID, setHash uint64, val float64) {
	if c == nil || int(e) >= len(c.entGen) {
		return
	}
	k := interestKey{u: u, e: e}
	sh := c.shard(k)
	entry := interestEntry{
		global: c.global.Load(),
		entity: c.entGen[e].Load(),
		set:    setHash,
		val:    val,
	}
	sh.mu.Lock()
	if len(sh.m) >= c.maxPerShard {
		clear(sh.m)
	}
	sh.m[k] = entry
	sh.mu.Unlock()
}

// invalidateEntity drops every (·, e) entry by bumping e's generation.
// Callers must hold the linker's write lock (the Feedback path does).
func (c *interestCache) invalidateEntity(e kb.EntityID) {
	if c == nil || int(e) >= len(c.entGen) {
		return
	}
	c.entGen[e].Add(1)
}

// invalidateAll logically empties the cache by bumping the global
// generation, for events that can move any entry (reachability changes).
func (c *interestCache) invalidateAll() {
	if c == nil {
		return
	}
	c.global.Add(1)
}

// hashEntitySet is FNV-1a over the candidate set. Candidate sets come out
// of the candidate index in deterministic order, so no sorting is needed
// for equal sets to hash equally.
func hashEntitySet(ents []kb.EntityID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range ents {
		v := uint32(e)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	return h
}
