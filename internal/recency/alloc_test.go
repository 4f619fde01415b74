//go:build !race

// The race detector drops pooled scratch at random, so the allocation
// count below only holds without it.

package recency

import (
	"math/rand"
	"slices"
	"testing"

	"microlink/internal/kb"
)

// TestScoresAllocatesOnlyResult pins the steady state of Scores on both
// memo paths. The propagation vectors come from the pool, so a memo hit
// allocates only the returned slice; a miss adds one memo entry (its
// header and one backing array holding s0 and the result vector).
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
	// Two instants at which cands[0]'s cluster bursts with different
	// window vectors: repeating one hits, alternating them misses.
	members := c.net.ClusterOf(cands[0])
	window := func(now int64) []float64 {
		s0 := make([]float64, len(members))
		for i, m := range members {
			s0[i] = s.raw(m, now)
		}
		return s0
	}
	var nows []int64
	for now := c.tmax / 2; now < c.tmax && len(nows) < 2; now += 3600 {
		w := window(now)
		if slices.Max(w) > 0 && (len(nows) == 0 || !slices.Equal(w, window(nows[0]))) {
			nows = append(nows, now)
		}
	}
	if len(nows) < 2 {
		t.Fatal("no two distinct bursting windows in the synth world")
	}

	hits := s.MemoHits()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(nows[0], cands) }); allocs != 1 {
		t.Fatalf("memo hit: Scores allocates %v times per call, want 1 (the result)", allocs)
	}
	if s.MemoHits() == hits {
		t.Fatal("repeated Scores never hit the memo")
	}
	// Only cands[0]'s cluster: it is the one whose window differs. The
	// memo holds nows[0]'s window, so the first call is at nows[1].
	i, one := 1, cands[:1]
	hits = s.MemoHits()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(nows[i&1], one); i++ }); allocs != 3 {
		t.Fatalf("memo miss: Scores allocates %v times per call, want 3 (the result and one memo entry)", allocs)
	}
	if s.MemoHits() != hits {
		t.Fatal("alternating window vectors hit the memo")
	}
}
