package reach

import (
	"math/rand"
	"testing"

	"microlink/internal/graph"
	"microlink/internal/synth"
)

// TestTwoHopDeviationOnBenchWorld measures how far the served R departs
// from Eq. 4 on the graph it is served on: the bench world's follow graph
// (synth seed 42, 2 000 users, 12 topics × 20 entities, 60 days) at
// H = 4, with the default batch size the streaming substrate builds.
// Over sampled pairs it reports, per distance, the share of reachable
// pairs on which TwoHop's R differs from Naive's, and fails when a
// distance's rate rises past its bound. Distances must agree on every
// pair; the deviation is the under-approximated followee set of TwoHop's
// exactness note.
func TestTwoHopDeviationOnBenchWorld(t *testing.T) {
	if raceEnabled {
		t.Skip("a measurement: the race detector adds ≈ 20× its cost and checks nothing here")
	}
	g := synth.Generate(synth.Params{Seed: 42, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60}).Graph
	th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
	naive := NewNaive(g, 4)
	// This sample measures d = 2: 1 of 404 reachable pairs differ, d = 3:
	// 99 of 2 497 (4.0 %), d = 4: 330 of 2 933 (11.3 %); the same draw
	// over 20 000 pairs gives 1.2 %, 4.1 % and 11.2 %. Each bound is the
	// larger rate plus about two standard errors. d = 1 is always exact:
	// a direct follow scores 1.
	bound := [5]float64{1: 0, 2: 0.025, 3: 0.05, 4: 0.125}
	var reachable, differ [5]int
	r := rand.New(rand.NewSource(13))
	n := g.NumNodes()
	for i := 0; i < 6000; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v {
			continue
		}
		res, ok := naive.Query(u, v)
		got, gotOK := th.Query(u, v)
		if gotOK != ok || got.Dist != res.Dist {
			t.Fatalf("(%d, %d): 2-hop distance %d %v, naive %d %v", u, v, got.Dist, gotOK, res.Dist, ok)
		}
		if !ok {
			continue
		}
		reachable[res.Dist]++
		if th.R(u, v) != score(res, ok, g.OutDegree(u)) {
			differ[res.Dist]++
		}
	}
	for d := 1; d <= 4; d++ {
		rate := float64(differ[d]) / float64(max(reachable[d], 1))
		t.Logf("d = %d: R differs on %d of %d reachable pairs (%.2f%%)", d, differ[d], reachable[d], 100*rate)
		if rate > bound[d] {
			t.Errorf("d = %d: deviation rate %.4f above its bound %.4f", d, rate, bound[d])
		}
	}
}
