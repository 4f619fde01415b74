package recency

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/synth"
)

// oracle is the reference recency scorer: one propagation per candidate,
// over the map-keyed adjacency, with fresh vectors each run, reading each
// reverse probability off the far end's edge list. Scores must equal it
// to the bit.
type oracle struct{ s *Scorer }

// reverseP is P(from, to) as stored on from's edge to to.
func (o oracle) reverseP(from, to kb.EntityID) float64 {
	for _, ed := range o.s.net.adj[from] {
		if ed.To == to {
			return ed.P
		}
	}
	return 0
}

func (o oracle) propagated(e kb.EntityID, now int64) float64 {
	s := o.s
	if s.opts.NoPropagation {
		return s.raw(e, now)
	}
	members := s.net.ClusterOf(e)
	if members == nil {
		return s.raw(e, now)
	}
	vec := o.propagateCluster(members, now)
	for i, m := range members {
		if m == e {
			return vec[i]
		}
	}
	return 0
}

func (o oracle) propagateCluster(members []kb.EntityID, now int64) []float64 {
	s := o.s
	idx := make(map[kb.EntityID]int32, len(members))
	for i, m := range members {
		idx[m] = int32(i)
	}
	s0 := make([]float64, len(members))
	any := false
	for i, m := range members {
		s0[i] = s.raw(m, now)
		if s0[i] > 0 {
			any = true
		}
	}
	if !any {
		return s0
	}
	cur := append([]float64(nil), s0...)
	nxt := make([]float64, len(members))
	lam := s.opts.Lambda
	for it := 0; it < s.opts.Iterations; it++ {
		maxDelta := 0.0
		for i, m := range members {
			acc := 0.0
			for _, ed := range s.net.adj[m] {
				acc += o.reverseP(ed.To, m) * cur[idx[ed.To]]
			}
			nxt[i] = lam*s0[i] + (1-lam)*acc
			if d := abs(nxt[i] - cur[i]); d > maxDelta {
				maxDelta = d
			}
		}
		cur, nxt = nxt, cur
		if maxDelta < 1e-9 {
			break
		}
	}
	return cur
}

func (o oracle) scores(now int64, cands []kb.EntityID) []float64 {
	out := make([]float64, len(cands))
	var sum float64
	for i, e := range cands {
		out[i] = o.propagated(e, now)
		sum += out[i]
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// oracleCase is one world the oracle tests draw queries from.
type oracleCase struct {
	name   string
	ckb    *kb.Complemented
	net    *PropNet
	opts   Options
	n      int   // entities
	tmax   int64 // postings and queries fall in [0, tmax)
	single bool  // scorer without propagation
}

func (c oracleCase) scorer() *Scorer {
	if c.single {
		o := c.opts
		o.NoPropagation = true
		return NewScorer(c.ckb, nil, o, obs.NewRegistry())
	}
	return NewScorer(c.ckb, c.net, c.opts, obs.NewRegistry())
}

// seededClusterKB is clusterKB with random postings: mostly bursts of
// 1–15 at one instant, so θ₁ is crossed on some entities and not others.
func seededClusterKB(seed int64) (*kb.Complemented, *PropNet) {
	k := clusterKB()
	c := kb.Complement(k)
	r := rand.New(rand.NewSource(seed))
	for b := r.Intn(12); b > 0; b-- {
		e, at := kb.EntityID(r.Intn(k.NumEntities())), int64(r.Intn(1000))
		for n := 1 + r.Intn(15); n > 0; n-- {
			c.Link(e, kb.Posting{Tweet: r.Int63(), User: kb.UserID(r.Intn(50)), Time: at})
		}
	}
	return c, BuildPropNet(k, 0.4)
}

var (
	synthOnce sync.Once
	synthKB   *kb.KB
	synthCKB  *kb.Complemented
	synthNet  *PropNet
	synthEnts int
	synthTmax int64
)

// synthWorld is the world shape of the bench/ harness: seed 42, 2 000
// users, θ₂ = 0.6, postings from the ground truth of active users.
func synthWorld() oracleCase {
	synthOnce.Do(func() {
		w := synth.Generate(synth.Params{Seed: 42, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60})
		synthKB = w.KB
		synthCKB = w.ComplementTruth(w.Store.FilterByActivity(10, 0))
		synthNet = BuildPropNet(w.KB, 0.6)
		synthEnts = w.KB.NumEntities()
		synthTmax = w.Horizon()
	})
	return oracleCase{name: "synth", ckb: synthCKB, net: synthNet, n: synthEnts, tmax: synthTmax}
}

// oracleCases is clusterKB under random postings from seeds 0–19, and
// the synth world; each with and without propagation.
func oracleCases() []oracleCase {
	var cases []oracleCase
	add := func(c oracleCase) {
		noProp := c
		noProp.name, noProp.single = c.name+"/no-propagation", true
		cases = append(cases, c, noProp)
	}
	for seed := int64(0); seed < 20; seed++ {
		c, net := seededClusterKB(seed)
		add(oracleCase{name: "clusterKB", ckb: c, net: net, opts: Options{Theta1: 5, Tau: 100}, n: 10, tmax: 1100})
	}
	add(synthWorld())
	return cases
}

// randomCands draws 1–6 candidates with replacement, so lists repeat
// entities and mix clustered with unclustered ones.
func randomCands(r *rand.Rand, n int) []kb.EntityID {
	cands := make([]kb.EntityID, 1+r.Intn(6))
	for i := range cands {
		cands[i] = kb.EntityID(r.Intn(n))
	}
	return cands
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, oracle %v (all %v vs %v)", what, i, got[i], want[i], got, want)
		}
	}
}

func TestScoresMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range oracleCases() {
		s := c.scorer()
		o := oracle{s}
		for q := 0; q < 100; q++ {
			now, cands := r.Int63n(c.tmax), randomCands(r, c.n)
			sameBits(t, c.name, s.Scores(now, cands), o.scores(now, cands))
			if got, want := s.Propagated(cands[0], now), o.propagated(cands[0], now); got != want {
				t.Fatalf("%s: Propagated(%d, %d) = %v, oracle %v", c.name, cands[0], now, got, want)
			}
		}
	}
}

// TestScoresMatchOracleOnSurfaces replays the synth world's own candidate
// sets, the lists the linker actually passes, at random times.
func TestScoresMatchOracleOnSurfaces(t *testing.T) {
	c := synthWorld()
	s := c.scorer()
	o := oracle{s}
	r := rand.New(rand.NewSource(2))
	synthKB.EachSurface(func(form string, cands []kb.EntityID) {
		now := r.Int63n(c.tmax)
		sameBits(t, form, s.Scores(now, cands), o.scores(now, cands))
	})
}

func TestScoresConcurrentMatchOracle(t *testing.T) {
	c := synthWorld()
	s := c.scorer()
	o := oracle{s}
	type query struct {
		now   int64
		cands []kb.EntityID
		want  []float64
	}
	r := rand.New(rand.NewSource(3))
	qs := make([]query, 64)
	for i := range qs {
		qs[i].now, qs[i].cands = r.Int63n(c.tmax), randomCands(r, c.n)
		qs[i].want = o.scores(qs[i].now, qs[i].cands)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2*len(qs); k++ {
				q := qs[(k+w*7)%len(qs)]
				got := s.Scores(q.now, q.cands)
				for i := range got {
					if got[i] != q.want[i] {
						errs <- "concurrent Scores diverged from the oracle"
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
}

// FuzzScoresMatchOracle drives Scores with arbitrary postings (from seed),
// two query instants (now and now+dt) and a candidate list over
// clusterKB. Both instants are scored twice (a propagation or window
// entry, then a memo hit), then once more after each of a run of postings
// on entity post and its successors: before now's window, at now−τ−1,
// now−τ, now and now+1, in the future, and at now+off. Each Link bumps
// the posting generation and may move a window vector; every call is
// checked against the oracle to the bit.
func FuzzScoresMatchOracle(f *testing.F) {
	f.Add(int64(0), int64(500), []byte{0, 3, 5}, uint8(0), int64(1), int64(0))
	f.Add(int64(7), int64(900), []byte{0, 1, 2, 0, 9}, uint8(1), int64(-100), int64(-101))
	f.Add(int64(-3), int64(-1), []byte{}, uint8(9), int64(0), int64(0))
	f.Add(int64(2), int64(300), []byte{0, 3}, uint8(0), int64(101), int64(1))
	f.Add(int64(5), int64(math.MinInt64+50), []byte{0, 1, 3}, uint8(3), int64(-1), int64(math.MaxInt64))
	f.Add(int64(11), int64(math.MaxInt64), []byte{1, 4}, uint8(4), int64(-101), int64(-100))
	f.Fuzz(func(t *testing.T, seed, now int64, raw []byte, post uint8, dt, off int64) {
		c, net := seededClusterKB(seed)
		cands := make([]kb.EntityID, len(raw))
		for i, b := range raw {
			cands[i] = kb.EntityID(b % 10)
		}
		const tau = 100
		scorers := []*Scorer{
			NewScorer(c, net, Options{Theta1: 5, Tau: tau}, nil),
			NewScorer(c, net, Options{Theta1: 5, Tau: tau, NoPropagation: true}, nil),
		}
		instants := []int64{now, now + dt}
		check := func(what string) {
			for _, s := range scorers {
				for _, at := range instants {
					sameBits(t, fmt.Sprintf("%s at %d", what, at), s.Scores(at, cands), oracle{s}.scores(at, cands))
				}
			}
		}
		check("first")
		check("repeat")
		for i, d := range []int64{-tau - 50, -tau - 1, -tau, 0, 1, tau + 50, off} {
			e := kb.EntityID((int(post) + i) % 10)
			c.Link(e, kb.Posting{Tweet: -1 - int64(i), User: 1, Time: now + d})
			check(fmt.Sprintf("after Link(%d, now%+d)", e, d))
		}
	})
}
