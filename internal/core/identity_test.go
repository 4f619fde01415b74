package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"microlink/internal/candidate"
	"microlink/internal/kb"
	"microlink/internal/obs"
)

// refRecency is S_r (Eq. 9 + 11) built test-side: each candidate's
// cluster propagated from scratch over the network's edge lists, reading
// every reverse probability off the far end's edge, then normalised over
// the candidate set.
func (f *raceFixture) refRecency(now int64, ents []kb.EntityID) []float64 {
	opts := f.rec.Options()
	raw := func(e kb.EntityID) float64 {
		if n := f.ckb.RecentCount(e, now, opts.Tau); n >= opts.Theta1 {
			return float64(n)
		}
		return 0
	}
	reverseP := func(from, to kb.EntityID) float64 {
		for _, ed := range f.net.Edges(from) {
			if ed.To == to {
				return ed.P
			}
		}
		return 0
	}
	propagated := func(e kb.EntityID) float64 {
		members := f.net.ClusterOf(e)
		if members == nil {
			return raw(e)
		}
		idx := map[kb.EntityID]int{}
		s0 := make([]float64, len(members))
		for i, m := range members {
			idx[m], s0[i] = i, raw(m)
		}
		cur := append([]float64(nil), s0...)
		nxt := make([]float64, len(members))
		for it := 0; it < opts.Iterations; it++ {
			maxDelta := 0.0
			for i, m := range members {
				acc := 0.0
				for _, ed := range f.net.Edges(m) {
					acc += reverseP(ed.To, m) * cur[idx[ed.To]]
				}
				nxt[i] = opts.Lambda*s0[i] + (1-opts.Lambda)*acc
				maxDelta = math.Max(maxDelta, math.Abs(nxt[i]-cur[i]))
			}
			cur, nxt = nxt, cur
			if maxDelta < 1e-9 {
				break
			}
		}
		return cur[idx[e]]
	}
	out := make([]float64, len(ents))
	var sum float64
	for i, e := range ents {
		out[i] = propagated(e)
		sum += out[i]
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// refScores is Eq. 1 built test-side: one R call per averaged user and
// candidate, the reference recency above, and the linker's effective
// weights, ranked by descending score then ascending entity.
func (f *raceFixture) refScores(cfg Config, u kb.UserID, now int64, surface string) []Scored {
	ents := candidate.Entities(f.cand.Candidates(surface))
	if len(ents) == 0 {
		return nil
	}
	recs := f.refRecency(now, ents)
	out := make([]Scored, len(ents))
	var popSum, intSum float64
	for i, e := range ents {
		out[i].Entity = e
		out[i].Popularity = float64(f.ckb.Count(e))
		popSum += out[i].Popularity
		users := f.inf.TopInfluential(e, ents, cfg.TopInfluential)
		if cfg.WholeCommunity {
			users = f.ckb.Community(e)
		}
		var sum float64
		for _, v := range users {
			sum += f.st.R(u, v)
		}
		if len(users) > 0 {
			out[i].Interest = sum / float64(len(users))
		}
		if out[i].Interest < cfg.MinInterest {
			out[i].Interest = 0
		}
		intSum += out[i].Interest
	}
	for i := range out {
		if popSum > 0 {
			out[i].Popularity /= popSum
		}
		if intSum > 0 {
			out[i].Interest /= intSum
		}
		out[i].Recency = recs[i]
		out[i].Score = cfg.WInterest*out[i].Interest + cfg.WRecency*out[i].Recency + cfg.WPopularity*out[i].Popularity
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

func sameScored(t *testing.T, what string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// identityQueries spans every surface, a spread of users, and instants
// before, inside and after the seed postings' burst window.
func identityQueries() []MentionQuery {
	var qs []MentionQuery
	for _, now := range []int64{20, 60, 120, 170} {
		for s := 0; s < 6; s++ {
			for u := 0; u < 64; u += 9 {
				qs = append(qs, MentionQuery{User: kb.UserID(u), Now: now, Surface: fmt.Sprintf("s%d", s)})
			}
		}
	}
	return qs
}

// TestScoreCandidatesMatchesReference: ScoreCandidates equals the
// test-side Eq. 1 to the bit with the interest cache on (scored twice:
// misses, then hits) and off, over the influential users and over the
// whole community. CacheStats equals its /metrics lines.
func TestScoreCandidatesMatchesReference(t *testing.T) {
	f := newRaceFixture()
	for _, cfg := range []Config{
		{},
		{Batch: BatchOptions{DisableInterestCache: true}},
		{WholeCommunity: true},
		{WholeCommunity: true, Batch: BatchOptions{DisableInterestCache: true}},
	} {
		reg := obs.NewRegistry()
		l := New(f.ckb, f.cand, f.st, f.inf, f.rec, cfg, reg)
		name := fmt.Sprintf("whole=%v nocache=%v", cfg.WholeCommunity, cfg.Batch.DisableInterestCache)
		for pass := 0; pass < 2; pass++ {
			for _, q := range identityQueries() {
				sameScored(t, fmt.Sprintf("%s pass %d %+v", name, pass, q),
					l.ScoreCandidates(q.User, q.Now, q.Surface), f.refScores(l.Config(), q.User, q.Now, q.Surface))
			}
		}
		hits, misses := l.CacheStats()
		if cached := !cfg.Batch.DisableInterestCache; cached != (hits > 0 && misses > 0) {
			t.Fatalf("%s: cache hits %d, misses %d", name, hits, misses)
		}
		if h, m := exposed(t, reg, "microlink_linker_interest_cache_hits_total"),
			exposed(t, reg, "microlink_linker_interest_cache_misses_total"); h != hits || m != misses {
			t.Fatalf("%s: exposition reads %d hits, %d misses; CacheStats %d, %d", name, h, m, hits, misses)
		}
	}
}

// TestLinkBatchMixedCacheMatchesReference: a LinkBatch whose items mix
// warm, cold and half-warm (one candidate invalidated) interest-cache
// states still equals the test-side Eq. 1 to the bit, item by item.
func TestLinkBatchMixedCacheMatchesReference(t *testing.T) {
	f := newRaceFixture()
	l := f.linker(Config{Batch: BatchOptions{Workers: 4}})
	qs := identityQueries()
	for i, q := range qs {
		if i%3 == 0 { // warm every third item
			l.ScoreCandidates(q.User, q.Now, q.Surface)
		}
	}
	l.cache.invalidateEntity(0) // half-warm the items on s0
	hits0, misses0 := l.CacheStats()
	res := l.LinkBatch(context.Background(), qs)
	hits, misses := l.CacheStats()
	if hits == hits0 || misses == misses0 {
		t.Fatalf("batch saw %d hits and %d misses, want both", hits-hits0, misses-misses0)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		sameScored(t, fmt.Sprintf("item %d %+v", i, qs[i]), r.Scored, f.refScores(l.Config(), qs[i].User, qs[i].Now, qs[i].Surface))
	}
}

// exposed returns the value of one series of reg's Prometheus exposition.
func exposed(t *testing.T, reg *obs.Registry, series string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("series %s not exposed", series)
	return 0
}
