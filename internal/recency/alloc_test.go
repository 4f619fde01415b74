//go:build !race

// The race detector drops pooled scratch at random, so the allocation
// count below only holds without it.

package recency

import (
	"math/rand"
	"testing"

	"microlink/internal/kb"
)

// TestScoresAllocatesOnlyResult pins the steady state of Scores: the
// propagation vectors come from the pool, so the returned slice is the
// one allocation per call.
func TestScoresAllocatesOnlyResult(t *testing.T) {
	c := synthWorld()
	s := c.scorer()
	r := rand.New(rand.NewSource(4))
	// Three clustered candidates (the world has one big cluster, so two
	// of them reuse its run), an unclustered one and a duplicate: every
	// branch of Scores runs.
	var cands []kb.EntityID
	for len(cands) < 3 {
		if e := kb.EntityID(r.Intn(c.n)); c.net.clusterOf[e] >= 0 {
			cands = append(cands, e)
		}
	}
	for e := kb.EntityID(0); int(e) < c.n; e++ {
		if c.net.clusterOf[e] < 0 {
			cands = append(cands, e)
			break
		}
	}
	cands = append(cands, cands[0])
	now := c.tmax / 2
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(now, cands) }); allocs != 1 {
		t.Fatalf("Scores allocates %v times per call, want 1 (the result)", allocs)
	}
}
