package core

import (
	"math"
	"reflect"
	"testing"

	"microlink/internal/candidate"
	"microlink/internal/graph"
	"microlink/internal/influence"
	"microlink/internal/kb"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/tweets"
)

// Fixture: the paper's running example.
//
// Entities: 0 = MJ (basketball), 1 = MJ (ML), 2 = NBA, 3 = ICML.
// Surfaces: "jordan" → {0,1}; "nba" → 2; "icml" → 3.
// Links: articles 4..9 co-link {0,2}; articles 10..11 co-link {1,3}.
//
// Users: 0 = target (follows the ML expert), 1 = @NBAOfficial (tweets
// about MJ bb), 2 = ML expert (tweets about MJ ml), 3 = casual fan.
type fixture struct {
	k    *kb.KB
	ckb  *kb.Complemented
	rx   reach.Index
	inf  *influence.Estimator
	rec  *recency.Scorer
	cand *candidate.Index
}

func newFixture(popBB, popML int) *fixture {
	b := kb.NewBuilder()
	b.AddEntity(kb.Entity{Name: "Michael Jordan (basketball)"})
	b.AddEntity(kb.Entity{Name: "Michael Jordan (ML)"})
	b.AddEntity(kb.Entity{Name: "NBA"})
	b.AddEntity(kb.Entity{Name: "ICML"})
	for i := 0; i < 8; i++ {
		b.AddEntity(kb.Entity{Name: "article"})
	}
	b.AddSurface("jordan", 0)
	b.AddSurface("jordan", 1)
	b.AddSurface("nba", 2)
	b.AddSurface("icml", 3)
	for a := kb.EntityID(4); a <= 9; a++ {
		b.AddLink(a, 0)
		b.AddLink(a, 2)
	}
	for a := kb.EntityID(10); a <= 11; a++ {
		b.AddLink(a, 1)
		b.AddLink(a, 3)
	}
	k := b.Build()

	ckb := kb.Complement(k)
	id := int64(0)
	link := func(e kb.EntityID, u kb.UserID, n int, at int64) {
		for i := 0; i < n; i++ {
			id++
			ckb.Link(e, kb.Posting{Tweet: id, User: u, Time: at})
		}
	}
	link(0, 1, popBB, 100) // @NBAOfficial tweets MJ bb
	link(1, 2, popML, 100) // ML expert tweets MJ ml

	gb := graph.NewBuilder(5)
	gb.AddEdge(0, 2) // target follows the ML expert
	gb.AddEdge(3, 1) // casual fan follows @NBAOfficial
	g := gb.Build()

	f := &fixture{
		k:    k,
		ckb:  ckb,
		rx:   reach.NewNaive(g, 4),
		cand: candidate.NewIndex(k, candidate.Options{MaxEdit: 1}),
	}
	f.inf = influence.New(ckb, influence.Entropy)
	f.rec = recency.NewScorer(ckb, recency.BuildPropNet(k, 0.3), recency.Options{Tau: 100, Theta1: 3}, nil)
	return f
}

func (f *fixture) linker(cfg Config) *Linker {
	return New(f.ckb, f.cand, f.rx, f.inf, f.rec, cfg, nil)
}

func TestInterestOnlyFollowsSocialSignal(t *testing.T) {
	f := newFixture(50, 5) // basketball MJ far more popular
	l := f.linker(Config{WInterest: 1})
	// Target user follows the ML expert: interest must override nothing
	// else (α=1) and pick MJ (ML) despite low popularity.
	e, ok := l.LinkMention(0, 100, "jordan")
	if !ok || e != 1 {
		t.Fatalf("got %d ok=%v, want MJ (ML)", e, ok)
	}
	// The casual fan following @NBAOfficial gets MJ (basketball).
	if e, _ := l.LinkMention(3, 100, "jordan"); e != 0 {
		t.Fatalf("fan got %d, want MJ (bb)", e)
	}
}

func TestPopularityOnly(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{WPopularity: 1})
	for u := kb.UserID(0); u < 4; u++ {
		if e, _ := l.LinkMention(u, 100, "jordan"); e != 0 {
			t.Fatalf("user %d got %d, want the popular MJ (bb)", u, e)
		}
	}
}

func TestRecencyOnlyWithPropagation(t *testing.T) {
	f := newFixture(50, 5)
	// Burst on ICML now: propagation lifts MJ (ML) above MJ (bb), whose
	// postings are stale.
	for i := 0; i < 20; i++ {
		f.ckb.Link(3, kb.Posting{Tweet: int64(1000 + i), User: 2, Time: 10000})
	}
	l := f.linker(Config{WRecency: 1})
	e, _ := l.LinkMention(0, 10000, "jordan")
	if e != 1 {
		t.Fatalf("got %d, want MJ (ML) via ICML burst propagation", e)
	}
}

func TestDefaultCombinationAndBreakdown(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	scored := l.ScoreCandidates(0, 100, "jordan")
	if len(scored) != 2 {
		t.Fatalf("scored = %+v", scored)
	}
	for _, s := range scored {
		recomposed := 0.6*s.Interest + 0.3*s.Recency + 0.1*s.Popularity
		if math.Abs(recomposed-s.Score) > 1e-12 {
			t.Fatalf("breakdown does not recompose: %+v", s)
		}
		if s.Interest < 0 || s.Interest > 1 || s.Popularity < 0 || s.Popularity > 1 || s.Recency < 0 || s.Recency > 1 {
			t.Fatalf("feature out of range: %+v", s)
		}
	}
	// Interest dominates at the default weights: the follower of the ML
	// expert still gets MJ (ML).
	if scored[0].Entity != 1 {
		t.Fatalf("top = %+v", scored[0])
	}
}

func TestUnknownSurface(t *testing.T) {
	f := newFixture(5, 5)
	l := f.linker(Config{})
	if _, ok := l.LinkMention(0, 100, "qqqqqqq"); ok {
		t.Fatal("unknown surface must not link")
	}
	if s := l.ScoreCandidates(0, 100, "qqqqqqq"); s != nil {
		t.Fatalf("scored = %+v", s)
	}
}

func TestFuzzySurfaceStillLinks(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{WPopularity: 1})
	if e, ok := l.LinkMention(0, 100, "jordon"); !ok || e != 0 {
		t.Fatalf("fuzzy mention: got %d ok=%v", e, ok)
	}
}

func TestTopKNewEntityThreshold(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	if thr := l.NewEntityThreshold(); thr != 0.4 {
		t.Fatalf("threshold = %f", thr)
	}
	// User 4 follows nobody: S_in = 0 for every candidate, so every score
	// is ≤ β+γ = 0.4 and TopK must be empty (Appendix D: likely a new
	// entity/meaning).
	if got := l.TopK(4, 100, "jordan", 3); len(got) != 0 {
		t.Fatalf("TopK for uninterested user = %+v", got)
	}
	// The interested user clears the threshold.
	got := l.TopK(0, 100, "jordan", 3)
	if len(got) == 0 || got[0].Entity != 1 {
		t.Fatalf("TopK = %+v", got)
	}
}

func TestLinkTweetIndependentMentions(t *testing.T) {
	f := newFixture(50, 5)
	l := f.linker(Config{})
	tw := &tweets.Tweet{
		ID: 1, User: 0, Time: 100,
		Mentions: []tweets.Mention{
			{Surface: "jordan"}, {Surface: "icml"}, {Surface: "zzzz"},
		},
	}
	got := l.LinkTweet(tw)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != kb.NoEntity {
		t.Fatalf("got %v", got)
	}
}

func TestFeedbackUpdatesKnowledge(t *testing.T) {
	f := newFixture(5, 5)
	l := f.linker(Config{})
	before := f.ckb.Count(2)
	tw := &tweets.Tweet{ID: 99, User: 3, Time: 500, Mentions: []tweets.Mention{{Surface: "nba"}}}
	l.Feedback(tw, []kb.EntityID{2})
	if f.ckb.Count(2) != before+1 {
		t.Fatalf("count = %d", f.ckb.Count(2))
	}
	if f.ckb.UserCount(2, 3) != 1 {
		t.Fatal("authorship not recorded")
	}
	// NoEntity entries are skipped.
	l.Feedback(tw, []kb.EntityID{kb.NoEntity})
	if f.ckb.Count(2) != before+1 {
		t.Fatal("NoEntity feedback must be a no-op")
	}
}

func TestWholeCommunityMatchesTruncatedOnTinyCommunities(t *testing.T) {
	f := newFixture(5, 5)
	trunc := f.linker(Config{WInterest: 1, TopInfluential: 10})
	whole := f.linker(Config{WInterest: 1, WholeCommunity: true})
	// Communities here have a single member, so both paths agree.
	a, _ := trunc.LinkMention(0, 100, "jordan")
	b, _ := whole.LinkMention(0, 100, "jordan")
	if a != b {
		t.Fatalf("trunc=%d whole=%d", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	f := newFixture(5, 5)
	l := f.linker(Config{})
	cfg := l.Config()
	if cfg.WInterest != 0.6 || cfg.WRecency != 0.3 || cfg.WPopularity != 0.1 || cfg.TopInfluential != 5 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if l.Name() != "social-temporal" {
		t.Fatal("name")
	}
}

// TestFeedbackRefreshesSiblingCandidates: a confirmed posting on MJ (bb)
// by the ML expert spreads the expert's postings over {MJ bb, MJ ml}, so
// MJ (ml)'s influential user changes too. After Feedback the live linker
// must score "jordan" exactly as a linker built fresh over the same
// knowledgebase.
func TestFeedbackRefreshesSiblingCandidates(t *testing.T) {
	f := newFixture(50, 5)
	for i := 0; i < 3; i++ { // a second, unfollowed MJ (ml) fan
		f.ckb.Link(1, kb.Posting{Tweet: int64(500 + i), User: 4, Time: 100})
	}
	cfg := Config{TopInfluential: 1}
	l := f.linker(cfg)
	before := l.ScoreCandidates(0, 100, "jordan") // fills both caches
	l.Feedback(&tweets.Tweet{ID: 900, User: 2, Time: 100}, []kb.EntityID{0})

	got := l.ScoreCandidates(0, 100, "jordan")
	fresh := New(f.ckb, f.cand, f.rx, influence.New(f.ckb, influence.Entropy), f.rec, cfg, nil)
	want := fresh.ScoreCandidates(0, 100, "jordan")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Feedback: live %+v, fresh linker %+v", got, want)
	}
	if reflect.DeepEqual(before, want) {
		t.Fatal("the feedback posting should have changed the ranking inputs")
	}
}
