package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"microlink/internal/candidate"
	"microlink/internal/kb"
	"microlink/internal/recency"
	"microlink/internal/tweets"
)

func batchQueries(n int) []MentionQuery {
	surfaces := []string{"jordan", "nba", "icml", "zzzz"}
	qs := make([]MentionQuery, n)
	for i := range qs {
		qs[i] = MentionQuery{
			User:    kb.UserID(i % 4),
			Now:     100,
			Surface: surfaces[i%len(surfaces)],
		}
	}
	return qs
}

// batchShapes are the batch layouts LinkBatch must score exactly as the
// serial path does, over raceFixture: instants interleaved across
// surfaces (and surfaces across instants), a single instant, and s0 on
// its own — its candidates span two propagation clusters and an
// unclustered entity. Every shape carries an unknown surface.
func batchShapes() []batchShape {
	nows := []int64{60, 90, 120, 140}
	var interleaved, single, s0 []MentionQuery
	for i := 0; i < 64; i++ {
		surface := fmt.Sprintf("s%d", i%7)
		if i%7 == 6 {
			surface = "zzzz"
		}
		u := kb.UserID((i * 11) % 64)
		interleaved = append(interleaved, MentionQuery{User: u, Now: nows[(i*3)%4], Surface: surface})
		single = append(single, MentionQuery{User: u, Now: 100, Surface: surface})
		if i%8 == 0 {
			s0 = append(s0, MentionQuery{User: u, Now: nows[i%3], Surface: "s0"}, MentionQuery{User: u, Now: 100, Surface: "zzzz"})
		}
	}
	return []batchShape{{"interleaved", interleaved}, {"single-now", single}, {"s0", s0}}
}

type batchShape struct {
	name string
	qs   []MentionQuery
}

// TestLinkBatchMatchesSerial: LinkBatch equals the serial ScoreCandidates
// path item by item to the bit — Score and every feature — over every
// batch shape, across pool sizes, with the interest cache on and off and
// with propagation disabled. Serial and batch each run on a fresh linker,
// so both compute every interest cold.
func TestLinkBatchMatchesSerial(t *testing.T) {
	f := newRaceFixture()
	clusters := map[kb.EntityID]bool{} // keyed by the cluster's least member
	unclustered := false
	for _, e := range candidate.Entities(f.cand.Candidates("s0")) {
		if c := f.net.ClusterOf(e); c != nil {
			clusters[c[0]] = true
		} else {
			unclustered = true
		}
	}
	if len(clusters) < 2 || !unclustered {
		t.Fatalf("s0 spans %d clusters (unclustered candidate: %v), want ≥ 2 and one", len(clusters), unclustered)
	}
	noProp := recency.NewScorer(f.ckb, nil, recency.Options{Tau: 100, Theta1: 3, NoPropagation: true}, nil)
	type variant struct {
		name string
		rec  *recency.Scorer
		opt  BatchOptions
	}
	for _, v := range []variant{
		{"default", f.rec, BatchOptions{}},
		{"workers=1", f.rec, BatchOptions{Workers: 1}},
		{"workers=8", f.rec, BatchOptions{Workers: 8}},
		{"nocache", f.rec, BatchOptions{DisableInterestCache: true}},
		{"nopropagation/workers=1", noProp, BatchOptions{Workers: 1}},
		{"nopropagation/workers=8", noProp, BatchOptions{Workers: 8}},
	} {
		for _, shape := range batchShapes() {
			name, qs := v.name+"/"+shape.name, shape.qs
			serial := New(f.ckb, f.cand, f.st, f.inf, v.rec, Config{Batch: v.opt}, nil)
			want := make([][]Scored, len(qs))
			for i, q := range qs {
				want[i] = serial.ScoreCandidates(q.User, q.Now, q.Surface)
			}
			batch := New(f.ckb, f.cand, f.st, f.inf, v.rec, Config{Batch: v.opt}, nil)
			got := batch.LinkBatch(context.Background(), qs)
			if len(got) != len(qs) {
				t.Fatalf("%s: %d results for %d queries", name, len(got), len(qs))
			}
			for i, r := range got {
				if r.Err != nil {
					t.Fatalf("%s query %d: err = %v", name, i, r.Err)
				}
				sameScored(t, fmt.Sprintf("%s query %d %+v", name, i, qs[i]), r.Scored, want[i])
				wantBest := kb.NoEntity
				if len(want[i]) > 0 {
					wantBest = want[i][0].Entity
				}
				if r.Entity != wantBest {
					t.Fatalf("%s query %d: best %d, want %d", name, i, r.Entity, wantBest)
				}
			}
		}
	}
}

// TestLinkBatchPropagationBound: a batch runs no more propagations
// than it has distinct (now, cluster) pairs among its candidates — each
// now-group shares one recency view — whatever the number of surfaces
// and users per instant. Grouping by (surface, now) would pay once per
// (surface, now, cluster) instead, twice this bound on the interleaved
// shape.
func TestLinkBatchPropagationBound(t *testing.T) {
	f := newRaceFixture()
	qs := batchShapes()[0].qs // interleaved
	type nowCluster struct {
		now   int64
		least kb.EntityID
	}
	pairs := map[nowCluster]bool{}
	for _, q := range qs {
		for _, e := range candidate.Entities(f.cand.Candidates(q.Surface)) {
			if c := f.net.ClusterOf(e); c != nil {
				pairs[nowCluster{q.Now, c[0]}] = true
			}
		}
	}
	for _, workers := range []int{1, 8} {
		l := f.linker(Config{Batch: BatchOptions{Workers: workers}})
		before := f.rec.MemoHits() + f.rec.Propagations()
		l.LinkBatch(context.Background(), qs)
		got := f.rec.MemoHits() + f.rec.Propagations() - before
		if got == 0 || got > int64(len(pairs)) {
			t.Fatalf("workers=%d: %d propagations, want 1..%d (one per bursting (now, cluster))", workers, got, len(pairs))
		}
	}
}

func TestLinkBatchEmpty(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	if got := l.LinkBatch(context.Background(), nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

// An already-expired context must mark every item with the context error
// and return promptly rather than scoring anything.
func TestLinkBatchExpiredContext(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	got := l.LinkBatch(ctx, batchQueries(200))
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("expired batch took %v", el)
	}
	for i, r := range got {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("query %d: err = %v, want deadline exceeded", i, r.Err)
		}
		if r.Entity != kb.NoEntity || r.Scored != nil {
			t.Fatalf("query %d carries results despite deadline: %+v", i, r)
		}
	}
}

// Cancelling a batch mid-flight must (a) return promptly, (b) mark every
// unscored item with the context error while keeping completed ones, and
// (c) leave no pool goroutine behind — the count returns to the
// pre-batch baseline. Run under -race in the CI race lane, this is the
// regression test for the feeder's ctx.Done drain path.
func TestLinkBatchCancellationDrainsPool(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{Batch: BatchOptions{Workers: 8}})

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Distinct Now values make every query its own now-group, so the feeder
	// is still feeding when the cancel lands.
	qs := make([]MentionQuery, 600)
	for i := range qs {
		qs[i] = MentionQuery{User: kb.UserID(i % 4), Now: int64(i), Surface: "jordan"}
	}
	want := make([][]Scored, len(qs))
	for i, q := range qs {
		want[i] = l.ScoreCandidates(q.User, q.Now, q.Surface)
	}
	done := make(chan []BatchResult, 1)
	go func() { done <- l.LinkBatch(ctx, qs) }()
	cancel()

	var res []BatchResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("LinkBatch did not return after cancellation")
	}
	if len(res) != len(qs) {
		t.Fatalf("%d results for %d queries", len(res), len(qs))
	}
	for i, r := range res {
		if r.Err == nil {
			// Completed before the cancel landed: the zero BatchResult
			// (entity 0, no error) of a dropped item must not pass.
			sameScored(t, fmt.Sprintf("completed query %d", i), r.Scored, want[i])
			if len(want[i]) == 0 || r.Entity != want[i][0].Entity {
				t.Fatalf("completed query %d: best %d, serial %+v", i, r.Entity, want[i])
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Entity != kb.NoEntity || r.Scored != nil {
			t.Fatalf("query %d carries results despite cancellation: %+v", i, r)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine count %d did not return to baseline %d after cancellation", n, baseline)
	}
}

func TestScoreCandidatesCtxCancelled(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.ScoreCandidatesCtx(ctx, 0, 100, "jordan"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if _, _, err := l.LinkMentionCtx(ctx, 0, 100, "jordan"); !errors.Is(err, context.Canceled) {
		t.Fatalf("LinkMentionCtx err = %v", err)
	}
	if _, err := l.TopKCtx(ctx, 0, 100, "jordan", 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKCtx err = %v", err)
	}
}

// The interest cache must serve repeat scores without recomputation and
// drop entries for an entity as soon as Feedback appends postings to it.
func TestInterestCacheInvalidation(t *testing.T) {
	f := newFixture(50, 5)
	cached := f.linker(Config{WInterest: 1})
	fresh := f.linker(Config{WInterest: 1, Batch: BatchOptions{DisableInterestCache: true}})

	first := cached.ScoreCandidates(0, 100, "jordan")
	again := cached.ScoreCandidates(0, 100, "jordan")
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("cached rescore diverged: %+v != %+v", first[i], again[i])
		}
	}

	// Feedback: the target user (0) posts about basketball MJ many times,
	// making herself part of that community and shifting Eq. 8.
	for i := 0; i < 10; i++ {
		tw := &tweets.Tweet{ID: int64(1000 + i), User: 0, Time: 100,
			Mentions: []tweets.Mention{{Surface: "jordan"}}}
		links := []kb.EntityID{0}
		cached.Feedback(tw, links)
		fresh.Feedback(tw, links)
	}

	got := cached.ScoreCandidates(0, 100, "jordan")
	want := fresh.ScoreCandidates(0, 100, "jordan")
	for i := range want {
		if got[i].Entity != want[i].Entity || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("post-feedback cand %d: cached %+v, fresh %+v (stale cache?)", i, got[i], want[i])
		}
	}
	if got[0].Interest == first[0].Interest && got[0].Entity == first[0].Entity && got[0].Score == first[0].Score {
		t.Fatal("feedback did not change the score at all; invalidation untested")
	}
}

// InvalidateReachability must flush every entry, not just one entity's.
func TestInvalidateReachabilityFlushesAll(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	l.ScoreCandidates(0, 100, "jordan")
	l.ScoreCandidates(3, 100, "jordan")
	if l.cache == nil {
		t.Fatal("cache unexpectedly disabled")
	}
	if _, ok := l.cache.get(0, 0, hashEntitySet([]kb.EntityID{0, 1})); !ok {
		t.Fatal("expected a live cache entry for (0, 0)")
	}
	l.InvalidateReachability()
	if _, ok := l.cache.get(0, 0, hashEntitySet([]kb.EntityID{0, 1})); ok {
		t.Fatal("entry survived InvalidateReachability")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	c := newInterestCache(1000, 2)
	for i := 0; i < 100; i++ {
		c.put(kb.UserID(i), kb.EntityID(i%1000), 1, float64(i))
	}
	total := 0
	for s := range c.shards {
		total += len(c.shards[s].m)
	}
	if total > interestCacheShards*2 {
		t.Fatalf("cache holds %d entries, bound is %d", total, interestCacheShards*2)
	}
}
