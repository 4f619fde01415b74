package recency

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// memoModel predicts the memo's hits for one single-threaded Scores call
// from first principles. Each cluster holds up to memoWays entries, each
// an s0 (nil for a window where no member bursts) stamped with the
// knowledgebase's posting total and the instant it was read at. An entry
// answers outright when nothing was linked since its stamp and no posting
// of a member entered or left its window between its instant and now;
// otherwise the call reads s0, re-stamps the entry holding an equal s0,
// and failing that propagates into a new entry, replacing the one stamped
// longest ago. A bursting cluster hits unless it propagates.
type memoModel struct {
	s       *Scorer
	entries map[int32][]*modelEntry
	stamps  int
}

type modelEntry struct {
	s0     []float64
	total  int64
	at     int64
	stamp  int
	bursts bool
}

// sameWindows reports whether every member's in-window postings are the
// same set at every instant from a to b.
func (m *memoModel) sameWindows(members []kb.EntityID, a, b int64) bool {
	if a > b {
		a, b = b, a
	}
	tau := m.s.opts.Tau
	for _, e := range members {
		ps := m.s.ckb.Postings(e)
		in := func(p kb.Posting, t int64) bool { return t-tau <= p.Time && p.Time <= t }
		for _, p := range ps {
			for t := a + 1; t <= b; t++ {
				if in(p, t) != in(p, a) {
					return false
				}
			}
		}
	}
	return true
}

func (m *memoModel) call(now int64, cands []kb.EntityID) (hits, bursting int) {
	seen := map[int32]bool{}
	total := m.s.ckb.TotalCount()
	for _, e := range cands {
		id := m.s.net.clusterOf[e]
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		members := m.s.net.clusters[id].members
		s0 := gatedWindow(m.s, members, now)
		burst := slices.Max(s0) > 0
		if burst {
			bursting++
		}
		entries := m.entries[id]
		if slices.ContainsFunc(entries, func(en *modelEntry) bool {
			return en.total == total && m.sameWindows(members, en.at, now)
		}) {
			if burst {
				hits++
			}
			continue
		}
		m.stamps++
		if i := slices.IndexFunc(entries, func(en *modelEntry) bool {
			return en.bursts == burst && slices.Equal(en.s0, s0)
		}); i >= 0 {
			entries[i].total, entries[i].at, entries[i].stamp = total, now, m.stamps
			if burst {
				hits++
			}
			continue
		}
		en := &modelEntry{total: total, at: now, stamp: m.stamps, bursts: burst}
		if burst {
			en.s0 = s0
		}
		if len(entries) == memoWays {
			oldest := 0
			for i := range entries {
				if entries[i].stamp < entries[oldest].stamp {
					oldest = i
				}
			}
			entries = slices.Delete(entries, oldest, oldest+1)
		}
		m.entries[id] = append(entries, en)
	}
	return hits, bursting
}

// gatedWindow is s0 for members at now: each one's θ₁-gated window count.
func gatedWindow(s *Scorer, members []kb.EntityID, now int64) []float64 {
	s0 := make([]float64, len(members))
	for i, m := range members {
		s0[i] = s.raw(m, now)
	}
	return s0
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
// memo hit for every bursting cluster, and MemoHits and Propagations move
// as memoModel predicts, so a call whose s0 no entry holds misses. They
// equal their /metrics lines throughout.
func TestMemoAcrossBurstFlip(t *testing.T) {
	k := clusterKB()
	c := kb.Complement(k)
	reg := obs.NewRegistry()
	s := NewScorer(c, BuildPropNet(k, 0.4), Options{Theta1: 5, Tau: 100}, reg)
	o := oracle{s}
	model := &memoModel{s: s, entries: map[int32][]*modelEntry{}}
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

// TestMemoTwoDriftingClocks interleaves two clients whose clocks advance
// one second per call from instants apart on the synth world, the
// closed-loop shape of the bench harness once its lanes drift. Eq. 11 runs
// about once per window vector a clock enters, not once per call: with
// one entry per cluster each call would evict the other clock's entry and
// miss. The slack is the leading clock's new windows pushing out an entry
// the trailing clock still sits in (a far-apart pair reads 29 runs over 26
// entered windows). Every 50th answer is checked against the oracle to
// the bit.
func TestMemoTwoDriftingClocks(t *testing.T) {
	for _, apartBy := range []int64{300, 10000} {
		t.Run(fmt.Sprint(apartBy), func(t *testing.T) { twoClocks(t, apartBy) })
	}
}

func twoClocks(t *testing.T, apartBy int64) {
	c := synthWorld()
	s := c.scorer()
	o := oracle{s}
	var cands []kb.EntityID
	for e := kb.EntityID(0); int(e) < c.n && len(cands) < 3; e++ {
		if c.net.clusterOf[e] >= 0 {
			cands = append(cands, e)
		}
	}
	members := c.net.ClusterOf(cands[0])
	const calls = 3000
	start := [2]int64{c.tmax / 2, c.tmax/2 + apartBy}
	var last [2][]float64
	entered, apart := 0, 0
	for i := 0; i < calls; i++ {
		now := start[i%2] + int64(i/2)
		w := gatedWindow(s, members, now)
		if !slices.Equal(w, last[i%2]) && slices.Max(w) > 0 {
			entered++
		}
		last[i%2] = w
		got := s.Scores(now, cands)
		if i%50 == 0 {
			sameBits(t, fmt.Sprintf("call %d now=%d", i, now), got, o.scores(now, cands))
		}
		if i%2 == 1 && !slices.Equal(last[0], last[1]) {
			apart++
		}
	}
	if apart < calls/4 {
		t.Fatalf("the clocks shared a window vector on %d of %d call pairs; the schedule does not separate them", calls/2-apart, calls/2)
	}
	if runs := s.Propagations(); runs > int64(entered+entered/4) {
		t.Fatalf("Eq. 11 ran %d times over %d calls; the clocks entered %d window vectors", runs, calls, entered)
	}
}

// BenchmarkScoresParallel scores the synth world's ambiguous surfaces
// from GOMAXPROCS clients, each on its own clock advancing one second per
// call from 300 s past the previous client's start: the closed-loop shape
// of a server whose clients drift apart. propagations/op is Eq. 11 runs
// per call.
func BenchmarkScoresParallel(b *testing.B) {
	c := synthWorld()
	s := c.scorer()
	var forms []string
	synthKB.EachSurface(func(form string, cands []kb.EntityID) {
		if len(cands) > 1 {
			forms = append(forms, form)
		}
	})
	slices.Sort(forms)
	surfaces := make([][]kb.EntityID, len(forms))
	for i, f := range forms {
		surfaces[i] = synthKB.Candidates(f)
	}
	var clients atomic.Int64
	runs := s.Propagations()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		now := c.tmax/2 + 300*clients.Add(1)
		for i := 0; pb.Next(); i++ {
			s.Scores(now, surfaces[i%len(surfaces)])
			now++
		}
	})
	b.ReportMetric(float64(s.Propagations()-runs)/float64(b.N), "propagations/op")
}
