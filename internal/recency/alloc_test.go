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

// TestScoresAllocatesOnlyResult pins the steady state of Scores on every
// memo path. The counts and propagation vectors come from the pool, so a
// call inside an entry's window allocates only the returned slice; a
// re-stamp adds the new entry's header; a miss adds one memo entry (its
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
	members := c.net.ClusterOf(cands[0])
	window := func(now int64) []float64 { return gatedWindow(s, members, now) }
	// memoWays+1 instants at which cands[0]'s cluster bursts with
	// pairwise different window vectors: cycling through them misses on
	// every call. Any two of them fit the memo side by side.
	var nows []int64
	var seen [][]float64
	for now := c.tmax / 2; now < c.tmax && len(nows) <= memoWays; now += 3600 {
		w := window(now)
		if slices.Max(w) > 0 && !slices.ContainsFunc(seen, func(x []float64) bool { return slices.Equal(x, w) }) {
			nows, seen = append(nows, now), append(seen, w)
		}
	}
	if len(nows) <= memoWays {
		t.Fatalf("%d distinct bursting windows in the synth world, want %d", len(nows), memoWays+1)
	}
	// Two adjacent instants whose window vectors are equal but whose
	// count windows differ: a posting of some member enters or leaves
	// between them without moving s0.
	counts := make([]int, len(members))
	var restamp [2]int64
	for now := c.tmax / 2; now < c.tmax; now++ {
		_, _, until := c.ckb.RecentCounts(members, now, s.opts.Tau, counts)
		if w := window(now); slices.Max(w) > 0 && slices.Equal(w, window(until+1)) {
			restamp = [2]int64{now, until + 1}
			break
		}
	}
	if restamp[1] == 0 {
		t.Fatal("no window edge that keeps s0 in the synth world")
	}

	hits := s.MemoHits()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(nows[0], cands) }); allocs != 1 {
		t.Fatalf("memo hit: Scores allocates %v times per call, want 1 (the result)", allocs)
	}
	if s.MemoHits() == hits {
		t.Fatal("repeated Scores never hit the memo")
	}
	// Only cands[0]'s cluster from here: it is the one whose windows are
	// chosen. Two windows alternating both stay in the memo.
	i, one := 0, cands[:1]
	s.Scores(nows[1], one)
	runs := s.Propagations()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(nows[i&1], one); i++ }); allocs != 1 {
		t.Fatalf("alternating windows: Scores allocates %v times per call, want 1 (the result)", allocs)
	}
	if s.Propagations() != runs {
		t.Fatal("alternating two window vectors re-ran Eq. 11")
	}
	// Alternating instants with one s0 across a window edge re-stamp the
	// entry each call.
	s.Scores(restamp[0], one)
	hits, runs = s.MemoHits(), s.Propagations()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(restamp[i&1], one); i++ }); allocs != 2 {
		t.Fatalf("re-stamp: Scores allocates %v times per call, want 2 (the result and one entry header)", allocs)
	}
	if s.Propagations() != runs || s.MemoHits() == hits {
		t.Fatal("a window edge that keeps s0 re-ran Eq. 11")
	}
	// Cycling through memoWays+1 window vectors always finds its next one
	// replaced.
	hits = s.MemoHits()
	if allocs := testing.AllocsPerRun(200, func() { s.Scores(nows[i%len(nows)], one); i++ }); allocs != 3 {
		t.Fatalf("memo miss: Scores allocates %v times per call, want 3 (the result and one memo entry)", allocs)
	}
	if s.MemoHits() != hits {
		t.Fatal("cycling through more window vectors than the memo holds hit it")
	}
}
