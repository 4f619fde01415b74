package kb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Posting links one tweet to one entity inside the complemented
// knowledgebase (Definition 5): the tweet's identity, author, and
// timestamp (unix seconds).
type Posting struct {
	Tweet int64
	User  UserID
	Time  int64
}

// Complemented is the complemented knowledgebase K′ of Definition 5: the
// base KB plus, for every entity e, the list D_e of postings linked to it.
// It supports the online feedback path of §3.2.2 — newly linked tweets are
// appended under a write lock while inference reads concurrently.
type Complemented struct {
	kb *KB

	mu       sync.RWMutex       // microlint:lock-order ckb
	postings [][]Posting        // microlint:guarded-by mu — per entity, sorted by Time
	perUser  []map[UserID]int32 // microlint:guarded-by mu — per entity: |D_e^u|
	total    int64              // microlint:guarded-by mu — total postings across all entities

	// gen is the posting generation: Link bumps it under mu, so a reader
	// that sees the generation it read counts at knows no posting has
	// been linked since, without taking the lock.
	gen atomic.Uint64
}

// Complement wraps a base KB into an (initially empty) complemented KB.
func Complement(k *KB) *Complemented {
	return &Complemented{
		kb:       k,
		postings: make([][]Posting, k.NumEntities()),
		perUser:  make([]map[UserID]int32, k.NumEntities()),
	}
}

// KB returns the underlying base knowledgebase.
func (c *Complemented) KB() *KB { return c.kb }

// Link appends a posting to D_e, keeping the list time-sorted. Postings
// normally arrive in stream order, so the common case is a pure append;
// out-of-order timestamps fall back to insertion.
func (c *Complemented) Link(e EntityID, p Posting) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.postings[e]
	if n := len(ps); n == 0 || ps[n-1].Time <= p.Time {
		c.postings[e] = append(ps, p)
	} else {
		i := sort.Search(n, func(i int) bool { return ps[i].Time > p.Time })
		ps = append(ps, Posting{})
		copy(ps[i+1:], ps[i:])
		ps[i] = p
		c.postings[e] = ps
	}
	m := c.perUser[e]
	if m == nil {
		m = make(map[UserID]int32)
		c.perUser[e] = m
	}
	m[p.User]++
	c.total++
	c.gen.Add(1)
}

// Generation returns the posting generation: the number of Link calls so
// far. Lock-free; RecentCounts reports the generation its counts hold at.
func (c *Complemented) Generation() uint64 { return c.gen.Load() }

// Count returns |D_e|: the number of postings linked to entity e — the
// numerator material of the popularity score (Eq. 2).
func (c *Complemented) Count(e EntityID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.postings[e])
}

// TotalCount returns the number of postings across all entities.
func (c *Complemented) TotalCount() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.total
}

// RecentCount returns |D_e^τ|: postings linked to e with now−tau ≤ Time ≤
// now (Eq. 9's sliding window), via two binary searches over the
// time-sorted list. The upper bound matters for evaluation over historical
// corpora: a linker replaying time "now" must not see postings from its
// future.
func (c *Complemented) RecentCount(e EntityID, now, tau int64) int {
	var n [1]int
	c.RecentCounts([]EntityID{e}, now, tau, n[:])
	return n[0]
}

// RecentCounts writes RecentCount(es[i], now, tau) into counts[i] for
// every entity of es under one read lock, and returns the posting
// generation those counts hold at together with a range [from, until]
// around now in which no posting of any of the entities enters or leaves
// its window: at every instant of the range each count is the same, for
// as long as the generation is. The range comes from the same two binary
// searches per entity (the postings either side of both window edges);
// when now−tau wraps or tau < 0 it is [now, now].
func (c *Complemented) RecentCounts(es []EntityID, now, tau int64, counts []int) (gen uint64, from, until int64) {
	cutoff := now - tau
	exact := tau >= 0 && cutoff <= now // else the window is empty or now−tau wrapped
	from, until = now, now
	if exact {
		from, until = math.MinInt64+tau, math.MaxInt64
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, e := range es {
		ps := c.postings[e]
		lo := sort.Search(len(ps), func(i int) bool { return ps[i].Time >= cutoff })
		hi := sort.Search(len(ps), func(i int) bool { return ps[i].Time > now })
		counts[i] = hi - lo
		if !exact {
			continue
		}
		// ps[lo:hi] stays the window while ps[hi-1] has arrived and
		// ps[hi] has not, and ps[lo] is still inside while ps[lo-1] has
		// left. ps[lo-1].Time < now−tau, so its +tau+1 cannot overflow;
		// ps[lo].Time+tau can, and then ps[lo] never leaves.
		if hi > 0 {
			from = max(from, ps[hi-1].Time)
		}
		if hi < len(ps) {
			until = min(until, ps[hi].Time-1)
		}
		if lo > 0 {
			from = max(from, ps[lo-1].Time+tau+1)
		}
		if lo < len(ps) && ps[lo].Time <= math.MaxInt64-tau {
			until = min(until, ps[lo].Time+tau)
		}
	}
	return c.gen.Load(), from, until
}

// UserCount returns |D_e^u|: postings by user u linked to entity e.
func (c *Complemented) UserCount(e EntityID, u UserID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.perUser[e][u])
}

// CommunitySize returns |U_e|: the number of distinct users tweeting about
// e (Definition 6).
func (c *Complemented) CommunitySize(e EntityID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.perUser[e])
}

// Community returns U_e as a freshly allocated slice, sorted by user
// ID. The order matters: whole-community interest (Eq. 8) sums
// floating-point reachabilities over this slice, and float addition is
// not associative — iterating in map order would make scores differ in
// the last ulps from run to run.
func (c *Complemented) Community(e EntityID) []UserID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]UserID, 0, len(c.perUser[e]))
	for u := range c.perUser[e] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachUserCount calls fn for every (user, count) pair of entity e's
// community while holding the read lock; fn must not call back into c.
func (c *Complemented) EachUserCount(e EntityID, fn func(u UserID, count int)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for u, n := range c.perUser[e] {
		fn(u, int(n))
	}
}

// Postings returns a copy of D_e, time-sorted.
func (c *Complemented) Postings(e EntityID) []Posting {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Posting(nil), c.postings[e]...)
}

// SnapshotPostings deep-copies every posting list under one read lock —
// the persistence capture of the complemented state. Lists come out in
// the stored (time-sorted) order, so ComplementRestore reproduces the
// KB exactly.
func (c *Complemented) SnapshotPostings() [][]Posting {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][]Posting, len(c.postings))
	for e, ps := range c.postings {
		if len(ps) > 0 {
			out[e] = append([]Posting(nil), ps...)
		}
	}
	return out
}

// ComplementRestore rebuilds a complemented KB from captured posting
// lists, re-deriving the per-user tallies. It is the load-side inverse of
// SnapshotPostings; the entity count must match the base KB.
func ComplementRestore(k *KB, postings [][]Posting) (*Complemented, error) {
	if len(postings) != k.NumEntities() {
		return nil, fmt.Errorf("kb: restore has %d posting lists, base KB has %d entities",
			len(postings), k.NumEntities())
	}
	c := Complement(k)
	// c is private here, but the mutation below goes through the guarded
	// fields, so hold the (uncontended) lock like every other writer.
	c.mu.Lock()
	defer c.mu.Unlock()
	for e, ps := range postings {
		if len(ps) == 0 {
			continue
		}
		c.postings[e] = append([]Posting(nil), ps...)
		m := make(map[UserID]int32, len(ps))
		for i := range ps {
			if i > 0 && ps[i].Time < ps[i-1].Time {
				return nil, fmt.Errorf("kb: restored postings for entity %d not time-sorted", e)
			}
			m[ps[i].User]++
		}
		c.perUser[e] = m
		c.total += int64(len(ps))
	}
	return c, nil
}
