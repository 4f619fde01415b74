// Package influence estimates user influence inside an entity's community
// (paper §4.1.2) and selects the most influential users, so that user
// interest can be measured by weighted reachability to a handful of
// discriminative accounts instead of the whole community.
//
// Two estimators are provided, matching the paper:
//
//   - TFIDF (Eq. 6):   Inf(u, U_e) = (|D_e^u| / |D_e|) · log(|E_m| / |E_m^u|)
//   - Entropy (Eq. 7): Inf(u, U_e) = (|D_e^u| / |D_e|) · 1 / entropy(u, E_m)
//
// Both depend on the candidate set E_m of the mention being linked: a user
// is influential for entity e only if her postings discriminate e from the
// *other* candidates of the same mention (the @NBAOfficial example).
package influence

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"microlink/internal/kb"
)

// Method selects the influence estimator. The zero value is Entropy, the
// method the paper finds superior (Fig. 4(c)) and uses by default.
type Method int

// Influence estimation methods (paper §4.1.2).
const (
	Entropy Method = iota
	TFIDF
)

// String returns the method name as used in Fig. 4(c).
func (m Method) String() string {
	if m == TFIDF {
		return "tfidf"
	}
	return "entropy"
}

// entropySmooth keeps Eq. 7 finite when a user's postings concentrate on a
// single candidate (entropy → 0, discriminativeness → ∞). The paper leaves
// this case undefined; additive smoothing preserves the ordering "more
// biased distribution ⇒ more influential" with a finite maximum, and its
// magnitude is chosen so that an *incidental* posting in another community
// (the @NBAOfficial example of §4.1.2) dents influence only mildly.
const entropySmooth = 0.1

// Estimator computes user influence over a complemented knowledgebase.
// Safe for concurrent use.
type Estimator struct {
	ckb    *kb.Complemented
	method Method

	mu    sync.RWMutex             // microlint:lock-order influence
	cache map[cacheKey][]kb.UserID // microlint:guarded-by mu
}

type cacheKey struct {
	e    kb.EntityID
	set  string // canonical encoding of the candidate set
	topK int
}

// New returns an Estimator using the given method.
func New(ckb *kb.Complemented, method Method) *Estimator {
	return &Estimator{ckb: ckb, method: method, cache: make(map[cacheKey][]kb.UserID)}
}

// Method returns the configured estimation method.
func (est *Estimator) Method() Method { return est.method }

// Influence computes Inf(u, U_e) for candidate set cands (which must
// contain e). Returns 0 when u has no postings about e.
func (est *Estimator) Influence(u kb.UserID, e kb.EntityID, cands []kb.EntityID) float64 {
	due := est.ckb.UserCount(e, u)
	if due == 0 {
		return 0
	}
	de := est.ckb.Count(e)
	if de == 0 {
		return 0
	}
	enthusiasm := float64(due) / float64(de)
	switch est.method {
	case TFIDF:
		mentioned := 0
		for _, c := range cands {
			if est.ckb.UserCount(c, u) > 0 {
				mentioned++
			}
		}
		if mentioned == 0 {
			return 0
		}
		disc := math.Log(float64(len(cands)) / float64(mentioned))
		return enthusiasm * disc
	default:
		return enthusiasm / (est.entropy(u, cands) + entropySmooth)
	}
}

// entropy computes entropy(u, E_m): the entropy of the distribution of u's
// postings across the candidate set (natural log).
func (est *Estimator) entropy(u kb.UserID, cands []kb.EntityID) float64 {
	total := 0
	counts := make([]int, len(cands))
	for i, c := range cands {
		counts[i] = est.ckb.UserCount(c, u)
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, n := range counts {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// TopInfluential returns the k most influential users of e's community
// U_e* with respect to candidate set cands, ordered by descending
// influence (ties by ascending user ID for determinism). k ≤ 0 returns the
// whole community ranked. Results are cached per (entity, candidate set,
// k) because the paper precomputes influential users during offline
// knowledge acquisition; the cache is invalidated by Invalidate when the
// feedback path appends new postings.
func (est *Estimator) TopInfluential(e kb.EntityID, cands []kb.EntityID, k int) []kb.UserID {
	key := cacheKey{e: e, set: encodeSet(cands), topK: k}
	est.mu.RLock()
	cached, ok := est.cache[key]
	est.mu.RUnlock()
	if ok {
		return cached
	}

	type scored struct {
		u   kb.UserID
		inf float64
	}
	var all []scored
	for _, u := range est.ckb.Community(e) {
		if inf := est.Influence(u, e, cands); inf > 0 {
			all = append(all, scored{u, inf})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].inf != all[j].inf {
			return all[i].inf > all[j].inf
		}
		return all[i].u < all[j].u
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	out := make([]kb.UserID, len(all))
	for i, s := range all {
		out[i] = s.u
	}

	est.mu.Lock()
	est.cache[key] = out
	est.mu.Unlock()
	return out
}

// Invalidate drops the cached influential-user sets that a new posting on
// e can change; the feedback path calls it. Both estimators score a user
// over the whole candidate set, so these are e's own sets and every set
// ranked against a candidate set containing e. It returns e and the
// entities of the dropped sets, ascending and without duplicates.
func (est *Estimator) Invalidate(e kb.EntityID) []kb.EntityID {
	member := encodeSet([]kb.EntityID{e})
	est.mu.Lock()
	defer est.mu.Unlock()
	hit := []kb.EntityID{e}
	for key := range est.cache {
		if key.e == e || strings.Contains(key.set, member) {
			delete(est.cache, key)
			if !slices.Contains(hit, key.e) {
				hit = append(hit, key.e)
			}
		}
	}
	slices.Sort(hit)
	return hit
}

// encodeSet renders a candidate set canonically as ",3,17,": e is in the
// set exactly when the string contains encodeSet({e}).
func encodeSet(cands []kb.EntityID) string {
	sorted := append([]kb.EntityID(nil), cands...)
	slices.Sort(sorted)
	b := []byte{','}
	for _, c := range sorted {
		b = append(strconv.AppendInt(b, int64(c), 10), ',')
	}
	return string(b)
}
