package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"microlink/internal/candidate"
	"microlink/internal/graph"
	"microlink/internal/influence"
	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/tweets"
)

// raceFixture is a denser world than the running example: 64 users on a
// ring-with-chords graph behind a streaming reach substrate, 12 entities
// behind 6 ambiguous surfaces (s0 also names a 13th, unclustered one),
// and enough seed postings that every entity has a community. It exercises the full live configuration: LinkBatch
// racing Feedback (KB + cache writes), follow edges entering the live
// graph, and rebuilt arenas swapping in (reachability writes).
type raceFixture struct {
	ckb  *kb.Complemented
	cand *candidate.Index
	st   *reach.Streaming
	inf  *influence.Estimator
	net  *recency.PropNet
	rec  *recency.Scorer
}

func newRaceFixture() *raceFixture {
	const users, entities = 64, 12
	b := kb.NewBuilder()
	for e := 0; e < entities; e++ {
		b.AddEntity(kb.Entity{Name: fmt.Sprintf("entity-%d", e)})
		b.AddSurface(fmt.Sprintf("s%d", e/2), kb.EntityID(e)) // s0..s5, 2 candidates each
	}
	// Co-linking articles so the recency propagation net is non-trivial.
	for a := 0; a < 6; a++ {
		id := b.AddEntity(kb.Entity{Name: "article"})
		b.AddLink(id, kb.EntityID(2*a%entities))
		b.AddLink(id, kb.EntityID((2*a+3)%entities))
	}
	// A third s0 candidate no article links: s0's candidate set spans two
	// propagation clusters and one unclustered entity.
	loner := b.AddEntity(kb.Entity{Name: "loner"})
	b.AddSurface("s0", loner)
	k := b.Build()

	ckb := kb.Complement(k)
	id := int64(0)
	post := func(e kb.EntityID) {
		for i := 0; i < 8; i++ {
			id++
			ckb.Link(e, kb.Posting{
				Tweet: id, User: kb.UserID((int(e)*7 + i*5) % users), Time: int64(50 + i),
			})
		}
	}
	for e := 0; e < entities; e++ {
		post(kb.EntityID(e))
	}
	post(loner)

	gb := graph.NewBuilder(users)
	for u := 0; u < users; u++ {
		gb.AddEdge(kb.UserID(u), kb.UserID((u+1)%users))
		gb.AddEdge(kb.UserID(u), kb.UserID((u+9)%users))
	}
	g := gb.Build()

	net := recency.BuildPropNet(k, 0.3)
	return &raceFixture{
		ckb:  ckb,
		cand: candidate.NewIndex(k, candidate.Options{MaxEdit: 1}),
		st:   reach.NewStreaming(g, reach.TwoHopOptions{MaxHops: 3}),
		inf:  influence.New(ckb, influence.Entropy),
		net:  net,
		rec:  recency.NewScorer(ckb, net, recency.Options{Tau: 100, Theta1: 3}, obs.NewRegistry()),
	}
}

// linker builds a linker over the fixture, instrumented into a registry
// of its own.
func (f *raceFixture) linker(cfg Config) *Linker {
	return New(f.ckb, f.cand, f.st, f.inf, f.rec, cfg, obs.NewRegistry())
}

// TestLinkBatchRaceWithFeedbackAndFollow is the -race stress test for the
// batch pipeline: batch scorers hammer LinkBatch while one writer streams
// Feedback (complemented-KB appends + influence/interest cache
// invalidation) and another inserts follow edges into the live graph,
// rebuilding the arena every few edges and installing it through
// UpdateReachability (arena swap + global cache flush). After the dust
// settles, a rescore through the cached linker must agree exactly with a
// cache-disabled linker over the same mutated substrates — any surviving
// stale entry (a missed invalidation, or a torn read cached mid-update)
// would show up as a divergence.
func TestLinkBatchRaceWithFeedbackAndFollow(t *testing.T) {
	f := newRaceFixture()
	l := f.linker(Config{Batch: BatchOptions{Workers: 4}})

	queries := make([]MentionQuery, 0, 48)
	for i := 0; i < 48; i++ {
		queries = append(queries, MentionQuery{
			User:    kb.UserID((i * 11) % 64),
			Now:     100 + 10*int64(i%4), // four now-groups: the pool runs in parallel
			Surface: fmt.Sprintf("s%d", i%6),
		})
	}

	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, br := range l.LinkBatch(context.Background(), queries) {
					if br.Err != nil {
						t.Errorf("worker %d round %d query %d: %v", w, r, i, br.Err)
						return
					}
					if len(br.Scored) > 0 && br.Entity != br.Scored[0].Entity {
						t.Errorf("worker %d round %d query %d: torn result %+v", w, r, i, br)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // feedback writer
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			tw := &tweets.Tweet{
				ID: int64(10000 + r), User: kb.UserID(r % 64), Time: int64(100 + r),
				Mentions: []tweets.Mention{{Surface: fmt.Sprintf("s%d", r%6)}},
			}
			l.Feedback(tw, []kb.EntityID{kb.EntityID(r % 12)})
		}
	}()
	wg.Add(1)
	go func() { // follow writer: new chords, never duplicating seed edges
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			f.st.InsertEdges([][2]kb.UserID{{kb.UserID((r * 13) % 64), kb.UserID((r*13 + 17 + r%3) % 64)}})
			if r%5 == 4 {
				th, at := f.st.Rebuild()
				l.UpdateReachability(func() { f.st.Install(th, at) })
			}
		}
	}()
	wg.Wait()
	if s := f.st.Staleness(); s != 0 {
		t.Fatalf("%d follow edges never reached the serving arena", s)
	}

	// Invalidation must have been observed: the cached linker now agrees
	// with a fresh cache-free linker over the same mutated substrates.
	fresh := f.linker(Config{Batch: BatchOptions{DisableInterestCache: true}})
	for _, q := range queries {
		got := l.ScoreCandidates(q.User, q.Now, q.Surface)
		want := fresh.ScoreCandidates(q.User, q.Now, q.Surface)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d vs %d candidates", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Entity != want[i].Entity || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("%+v cand %d: cached %+v != fresh %+v (stale cache entry)", q, i, got[i], want[i])
			}
		}
	}
}
