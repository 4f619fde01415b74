package reach

import (
	"math/rand"
	"slices"
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
// exactness note, and every differing pair must show its mechanism (no
// hub-u in-label at v).
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
			// The one mechanism of TestTwoHopDeviationCounterexamples:
			// the pair has no hub-u in-label at v.
			if hubs, _, _ := th.in.labels(v); slices.Contains(hubs, th.rank[u]) {
				t.Fatalf("(%d, %d) differs but v holds a hub-u in-label", u, v)
			}
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

// TestTwoHopDeviationCounterexamples pins the two corner cases of
// TwoHop's exactness note on the smallest graphs found for them (a seeded
// search over random graphs of 4–14 nodes, each shrunk edge by edge and
// relabelled so that the degree order is the id order). Both come from
// one mechanism: the source u is the top-ranked node of a shortest path
// through its followee f, so only a hub-u in-label at v can carry f, and
// the forward BFS from u (Algorithm 2, line 30) writes an in-label only
// on a strict distance improvement, while a higher-ranked hub already
// gives d(u, v) over another shortest path. The distance is exact; f is
// lost, so R falls below Eq. 4's value.
//
//	(1) diamond: v is reached at the equal distance and left unlabelled.
//	    0 ← 1 → 2,  0 → 3,  2 → 3;              (u, v) = (1, 3)
//	(2) pruned subtree: node 3 on the path is reached at the equal
//	    distance and not expanded, so the BFS never reaches v at all.
//	    1 → 0, 1 → 2, 0 → 1, 0 → 2, 0 → 3, 2 → 3, 3 → 4;  (u, v) = (1, 4)
//
// The serial build (batch size 1) is the one that shows them: at the
// default batch every hub of a graph this small shares one batch, nothing
// prunes, and both pairs are exact.
func TestTwoHopDeviationCounterexamples(t *testing.T) {
	cases := []struct {
		name          string
		n             int
		edges         [][2]graph.NodeID
		u, v          graph.NodeID
		dist          int
		served, naive []graph.NodeID
	}{
		{"diamond", 4, [][2]graph.NodeID{{1, 0}, {1, 2}, {0, 3}, {2, 3}},
			1, 3, 2, []graph.NodeID{0}, []graph.NodeID{0, 2}},
		{"pruned subtree", 5, [][2]graph.NodeID{{1, 0}, {1, 2}, {0, 1}, {0, 2}, {0, 3}, {2, 3}, {3, 4}},
			1, 4, 3, []graph.NodeID{0}, []graph.NodeID{0, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := graph.NewBuilder(c.n)
			for _, e := range c.edges {
				b.AddEdge(e[0], e[1])
			}
			g := b.Build()
			th := BuildTwoHop(g, TwoHopOptions{MaxHops: 4, BatchSize: 1})
			for rk, v := range th.order {
				if int(v) != rk {
					t.Fatalf("landmark order %v, want the id order", th.order)
				}
			}
			got, ok := th.Query(c.u, c.v)
			want, _ := NewNaive(g, 4).Query(c.u, c.v)
			if !ok || got.Dist != c.dist || want.Dist != c.dist {
				t.Fatalf("distance %d %v, naive %d; want both %d", got.Dist, ok, want.Dist, c.dist)
			}
			if !slices.Equal(got.Followees, c.served) || !slices.Equal(sortedCopy(want.Followees), c.naive) {
				t.Fatalf("followees %v, naive %v; want %v and %v", got.Followees, sortedCopy(want.Followees), c.served, c.naive)
			}
			if r, eq4 := th.R(c.u, c.v), score(want, true, g.OutDegree(c.u)); r >= eq4 {
				t.Fatalf("R = %v, Eq. 4 = %v; want R below it", r, eq4)
			}
			if hubs, _, _ := th.in.labels(c.v); slices.Contains(hubs, th.rank[c.u]) {
				t.Fatal("v holds a hub-u in-label; the counterexample needs it absent")
			}
			exact := BuildTwoHop(g, TwoHopOptions{MaxHops: 4})
			if got, _ := exact.Query(c.u, c.v); !slices.Equal(got.Followees, c.naive) {
				t.Fatalf("default batch: followees %v, want the exact %v", got.Followees, c.naive)
			}
		})
	}
}
