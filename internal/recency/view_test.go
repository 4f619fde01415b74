package recency

import (
	"fmt"
	"math/rand"
	"testing"

	"microlink/internal/kb"
)

// TestViewMatchesScores: a View answers every candidate set at its
// instant exactly as the oracle does, while Scores calls at other
// instants between its calls replace the memo entries and reuse the
// pooled vectors a propagation ran in — a view that kept either would
// drift.
func TestViewMatchesScores(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range oracleCases() {
		s := c.scorer()
		o := oracle{s}
		for round := 0; round < 10; round++ {
			now := r.Int63n(c.tmax)
			v := s.At(now)
			for q := 0; q < 20; q++ {
				cands := randomCands(r, c.n)
				sameBits(t, fmt.Sprintf("%s now=%d", c.name, now), v.Scores(cands), o.scores(now, cands))
				s.Scores(r.Int63n(c.tmax), randomCands(r, c.n))
			}
		}
	}
}

// TestViewPropagatesEachClusterOnce: a view runs (or looks up) each
// bursting cluster once, whatever the number of candidate sets, and
// repeating the sets costs nothing.
func TestViewPropagatesEachClusterOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	exercised := 0
	for _, c := range oracleCases() {
		s := c.scorer()
		for round := 0; round < 10; round++ {
			now := r.Int63n(c.tmax)
			var sets [][]kb.EntityID
			bursting := map[int32]bool{}
			for q := 0; q < 20; q++ {
				cands := randomCands(r, c.n)
				sets = append(sets, cands)
				if c.single {
					continue
				}
				for _, e := range cands {
					id := s.net.clusterOf[e]
					if id < 0 || bursting[id] {
						continue
					}
					for _, m := range s.net.clusters[id].members {
						if s.raw(m, now) > 0 {
							bursting[id] = true
							break
						}
					}
				}
			}
			exercised += len(bursting)
			v := s.At(now)
			before := s.MemoHits() + s.Propagations()
			for _, cands := range sets {
				v.Scores(cands)
			}
			if got := s.MemoHits() + s.Propagations() - before; got != int64(len(bursting)) {
				t.Fatalf("%s now=%d: %d propagations over %d sets, want one per bursting cluster (%d)",
					c.name, now, got, len(sets), len(bursting))
			}
			before = s.MemoHits() + s.Propagations()
			for _, cands := range sets {
				v.Scores(cands)
			}
			if got := s.MemoHits() + s.Propagations() - before; got != 0 {
				t.Fatalf("%s now=%d: repeating the sets propagated %d more times", c.name, now, got)
			}
		}
	}
	if exercised == 0 {
		t.Fatal("no round touched a bursting cluster")
	}
}
