package recency

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"microlink/internal/kb"
	"microlink/internal/obs"
)

// flipPostings is the burst-flip schedule over clusterKB's "jordan"
// surface {0, 3}: entity 0 (with cluster mate 1) bursts first, entity 3
// rises as 0's window drains, so the dominant candidate flips.
func flipPostings(at int64) []kb.EntityID {
	var es []kb.EntityID
	if at < 40 {
		es = append(es, 0)
	}
	if at < 60 && at%3 == 0 {
		es = append(es, 1)
	}
	if at >= 70 && at < 170 {
		es = append(es, 3)
	}
	return es
}

func linkFlip(c *kb.Complemented, at, tweetBase int64) {
	for _, e := range flipPostings(at) {
		c.Link(e, kb.Posting{Tweet: tweetBase + 10*at + int64(e), User: kb.UserID(e), Time: at})
	}
}

// memoModel predicts the memo's hits for one single-threaded Scores call:
// a bursting cluster hits when its s0 equals the one it last propagated
// from, and otherwise records the new s0.
type memoModel struct {
	s    *Scorer
	last map[int32][]float64
}

func (m *memoModel) call(now int64, cands []kb.EntityID) (hits, bursting int) {
	seen := map[int32]bool{}
	for _, e := range cands {
		id := m.s.net.clusterOf[e]
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		members := m.s.net.clusters[id].members
		s0, burst := make([]float64, len(members)), false
		for i, x := range members {
			s0[i] = m.s.raw(x, now)
			burst = burst || s0[i] > 0
		}
		if !burst {
			continue
		}
		bursting++
		if slices.Equal(m.last[id], s0) {
			hits++
		} else {
			m.last[id] = s0
		}
	}
	return hits, bursting
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TestMemoAcrossBurstFlip steps now one second at a time across a flip
// of the dominant candidate, posting between steps, and scores every
// step twice: each answer equals the oracle to the bit, the repeat is a
// memo hit for every bursting cluster, and a call whose s0 moved is not.
// MemoHits and Propagations equal their /metrics lines throughout.
func TestMemoAcrossBurstFlip(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	reg := obs.NewRegistry()
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100}, reg)
	o := oracle{s}
	model := &memoModel{s: s, last: map[int32][]float64{}}
	cands := []kb.EntityID{0, 3}
	lead, flips, misses := -1, 0, 0
	for now := int64(0); now < 320; now++ {
		linkFlip(c, now, 0)
		for rep := 0; rep < 2; rep++ {
			wantHits, bursting := model.call(now, cands)
			before, runs := s.MemoHits(), s.Propagations()
			got := s.Scores(now, cands)
			sameBits(t, fmt.Sprintf("now=%d rep=%d", now, rep), got, o.scores(now, cands))
			if d := s.MemoHits() - before; d != int64(wantHits) {
				t.Fatalf("now=%d rep=%d: MemoHits advanced %d, want %d", now, rep, d, wantHits)
			}
			if d := s.Propagations() - runs; d != int64(bursting-wantHits) {
				t.Fatalf("now=%d rep=%d: Propagations advanced %d, want %d", now, rep, d, bursting-wantHits)
			}
			if rep == 1 && wantHits != bursting {
				t.Fatalf("now=%d: repeat hit %d of %d bursting clusters", now, wantHits, bursting)
			}
			if rep == 0 && wantHits < bursting {
				misses++
			}
			if rep == 0 && bursting > 0 {
				if a := argmax(got); a != lead {
					lead, flips = a, flips+1
				}
			}
		}
	}
	// The first lead counts as one change; a flip is a second.
	if flips < 2 || misses == 0 {
		t.Fatalf("schedule exercised %d lead changes and %d s0 changes, want a flip and a miss", flips, misses)
	}
	if hit, miss := exposed(t, reg, `microlink_recency_propagations_total{memo="hit"}`),
		exposed(t, reg, `microlink_recency_propagations_total{memo="miss"}`); int64(hit) != s.MemoHits() || int64(miss) != s.Propagations() {
		t.Fatalf("exposition reads %d hits, %d misses; MemoHits %d, Propagations %d", hit, miss, s.MemoHits(), s.Propagations())
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

// TestMemoAcrossBurstFlipConcurrent is the race-lane variant: 8
// goroutines each step now across the flip from their own offset,
// scoring every step twice and posting (at times past the horizon, which
// no window reaches) between steps, so the memo slots are published and
// replaced concurrently. Every answer equals the oracle to the bit.
func TestMemoAcrossBurstFlipConcurrent(t *testing.T) {
	const horizon = 320
	k := clusterKB()
	c := kb.Complement(k)
	for at := int64(0); at < horizon; at++ {
		linkFlip(c, at, 0)
	}
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100}, obs.NewRegistry())
	o := oracle{s}
	cands := []kb.EntityID{0, 3}
	want := make([][]float64, horizon)
	for now := range want {
		want[now] = o.scores(int64(now), cands)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < horizon; i++ {
				now := (i + 37*w) % horizon
				linkFlip(c, horizon+int64(now), int64(w+1)<<32)
				for rep := 0; rep < 2; rep++ {
					got := s.Scores(int64(now), cands)
					if !slices.Equal(got, want[now]) {
						errs <- fmt.Sprintf("worker %d now=%d: %v, oracle %v", w, now, got, want[now])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s.MemoHits() == 0 {
		t.Fatal("no memo hits across repeated scoring")
	}
}
