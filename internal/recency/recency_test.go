package recency

import (
	"math"
	"testing"

	"microlink/internal/kb"
)

// clusterKB builds a KB with a strongly linked cluster {0,1,2} (e.g. MJ,
// Bulls, NBA), a pair {3,4} co-linked by several articles (MJml, ICML),
// and an isolated entity 5. Entities 0 and 3 share the surface "jordan",
// so a 0–3 propagation edge would be excluded even if they were related.
func clusterKB() *kb.KB {
	b := kb.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddEntity(kb.Entity{Name: "e"})
	}
	b.AddSurface("jordan", 0)
	b.AddSurface("jordan", 3)
	// Articles 6..9 act as co-linkers to force WLM > 0.
	for _, art := range []kb.EntityID{6, 7, 8, 9} {
		b.AddLink(art, 0)
		b.AddLink(art, 1)
		b.AddLink(art, 2)
	}
	for _, art := range []kb.EntityID{6, 7, 8} {
		b.AddLink(art, 3)
		b.AddLink(art, 4)
	}
	return b.Build()
}

func TestPropNetClustersAndExclusion(t *testing.T) {
	k := clusterKB()
	net := BuildPropNet(k, 0.4)
	// 0,1,2 share 4 inlinkers and 3,4 share 3; but 0–3, 0–4, 1–3 … also
	// share inlinkers (articles 6,7,8 link to all five). The same-mention
	// rule must cut 0–3 specifically.
	for _, ed := range net.Edges(0) {
		if ed.To == 3 {
			t.Fatal("same-mention edge 0–3 must be excluded")
		}
	}
	if len(net.ClusterOf(5)) != 0 {
		t.Fatal("isolated entity must be in no cluster")
	}
	if net.ClusterOf(0) == nil {
		t.Fatal("entity 0 must be clustered")
	}
	// Probabilities on each row sum to 1.
	for e := kb.EntityID(0); e < 10; e++ {
		edges := net.Edges(e)
		if len(edges) == 0 {
			continue
		}
		sum := 0.0
		for _, ed := range edges {
			sum += ed.P
			if ed.W < 0.4 {
				t.Errorf("edge below threshold survived: %+v", ed)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d probabilities sum to %f", e, sum)
		}
	}
	if net.NumEdges() == 0 || net.NumClusters() == 0 {
		t.Fatal("network should not be empty")
	}
}

func linkBurst(c *kb.Complemented, e kb.EntityID, n int, at int64) {
	for i := 0; i < n; i++ {
		c.Link(e, kb.Posting{Tweet: int64(i), User: 1, Time: at})
	}
}

func TestBurstGateTheta1(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 10, Tau: 100}, nil)
	linkBurst(c, 5, 9, 1000) // below threshold
	if got := s.Propagated(5, 1000); got != 0 {
		t.Fatalf("sub-threshold burst scored %f", got)
	}
	linkBurst(c, 5, 1, 1000) // now 10 postings
	if got := s.Propagated(5, 1000); got != 10 {
		t.Fatalf("burst = %f, want 10 (isolated entity, no propagation)", got)
	}
	// Outside the window the burst evaporates.
	if got := s.Propagated(5, 2000); got != 0 {
		t.Fatalf("stale burst scored %f", got)
	}
}

func TestPropagationReinforcesNeighbours(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100, Lambda: 0.5}, nil)
	// Burst on NBA (2) only; MJ (0) has no postings at all.
	linkBurst(c, 2, 20, 500)
	mj := s.Propagated(0, 500)
	if mj <= 0 {
		t.Fatal("propagation should lift MJ's recency above zero")
	}
	nba := s.Propagated(2, 500)
	if nba <= mj {
		t.Fatalf("source of the burst (%f) should outscore the neighbour (%f)", nba, mj)
	}
	// Without propagation MJ stays at zero (Fig. 4(d) ablation).
	noProp := NewScorer(c, nil, Options{Theta1: 5, Tau: 100, NoPropagation: true}, nil)
	if got := noProp.Propagated(0, 500); got != 0 {
		t.Fatalf("no-propagation MJ = %f", got)
	}
}

func TestPropagationStaysInsideCluster(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100}, nil)
	linkBurst(c, 2, 20, 500)
	// Entity 5 is isolated: no reinforcement can reach it.
	if got := s.Propagated(5, 500); got != 0 {
		t.Fatalf("burst leaked to isolated entity: %f", got)
	}
}

func TestScoresNormalisedOverCandidates(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100}, nil)
	linkBurst(c, 0, 20, 500)
	linkBurst(c, 3, 10, 500)
	scores := s.Scores(500, []kb.EntityID{0, 3, 5})
	sum := scores[0] + scores[1] + scores[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %f: %v", sum, scores)
	}
	if scores[0] <= scores[1] || scores[2] != 0 {
		t.Fatalf("scores = %v", scores)
	}
	// All-quiet candidate sets yield all-zero scores, not NaN.
	zero := s.Scores(99999, []kb.EntityID{0, 3, 5})
	for _, v := range zero {
		if v != 0 {
			t.Fatalf("quiet scores = %v", zero)
		}
	}
}

func TestLambdaExtreme(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	linkBurst(c, 2, 20, 500)
	// λ→1: propagation contributes nothing; propagated == raw.
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100, Lambda: 0.999999}, nil)
	if got := s.Propagated(0, 500); got > 1e-3 {
		t.Fatalf("λ≈1 should suppress propagation, got %f", got)
	}
	if got := s.Propagated(2, 500); math.Abs(got-20) > 0.1 {
		t.Fatalf("λ≈1 source = %f, want ≈20", got)
	}
}

func TestScorerPanicsWithoutNet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := clusterKB()
	NewScorer(kb.Complement(k), nil, Options{}, nil)
}

func TestDefaultsFilled(t *testing.T) {
	k := clusterKB()
	s := NewScorer(kb.Complement(k), BuildPropNet(k, 0.6), Options{}, nil)
	o := s.Options()
	if o.Tau != 3*24*3600 || o.Theta1 != 10 || o.Theta2 != 0.6 || o.Lambda != 0.5 || o.Iterations != 10 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestPropagationConverges(t *testing.T) {
	// With more iterations the result must stabilise (contraction by 1−λ).
	k := clusterKB()
	c := kb.Complement(k)
	linkBurst(c, 2, 20, 500)
	a := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100, Iterations: 30}, nil).Propagated(0, 500)
	b := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100, Iterations: 60}, nil).Propagated(0, 500)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("not converged: %f vs %f", a, b)
	}
}
