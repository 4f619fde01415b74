package kb

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// tinyKB builds a 6-entity KB with a clustered link structure:
// basketball cluster {0:MJ(bb), 1:Bulls, 2:NBA}, ML cluster {3:MJ(ml),
// 4:ICML}, plus 5:Jordan(country) linked to nothing. Articles inside a
// cluster link to each other.
func tinyKB() *KB {
	b := NewBuilder()
	mjbb := b.AddEntity(Entity{Name: "Michael Jordan (basketball)", Category: CategoryPerson})
	bulls := b.AddEntity(Entity{Name: "Chicago Bulls", Category: CategoryCompany})
	nba := b.AddEntity(Entity{Name: "NBA", Category: CategoryCompany})
	mjml := b.AddEntity(Entity{Name: "Michael Jordan (machine learning)", Category: CategoryPerson})
	icml := b.AddEntity(Entity{Name: "ICML", Category: CategoryCompany})
	country := b.AddEntity(Entity{Name: "Jordan (country)", Category: CategoryLocation})

	b.AddSurface("jordan", mjbb)
	b.AddSurface("jordan", mjml)
	b.AddSurface("jordan", country)
	b.AddSurface("michael jordan", mjbb)
	b.AddSurface("michael jordan", mjml)
	b.AddSurface("bulls", bulls)
	b.AddSurface("nba", nba)
	b.AddSurface("icml", icml)

	for _, from := range []EntityID{mjbb, bulls, nba} {
		for _, to := range []EntityID{mjbb, bulls, nba} {
			b.AddLink(from, to)
		}
	}
	for _, from := range []EntityID{mjml, icml} {
		for _, to := range []EntityID{mjml, icml} {
			b.AddLink(from, to)
		}
	}
	return b.Build()
}

func TestBuildBasics(t *testing.T) {
	k := tinyKB()
	if k.NumEntities() != 6 {
		t.Fatalf("entities = %d", k.NumEntities())
	}
	if k.NumSurfaces() != 5 {
		t.Fatalf("surfaces = %d", k.NumSurfaces())
	}
	cands := k.Candidates("jordan")
	if len(cands) != 3 {
		t.Fatalf("jordan candidates = %v", cands)
	}
	if k.Candidates("nosuch") != nil {
		t.Fatal("unknown surface should give nil")
	}
	if !k.HasSurface("bulls") || k.HasSurface("zzz") {
		t.Fatal("HasSurface wrong")
	}
}

func TestSurfaceDedup(t *testing.T) {
	b := NewBuilder()
	e := b.AddEntity(Entity{Name: "X"})
	b.AddSurface("x", e)
	b.AddSurface("x", e)
	k := b.Build()
	if len(k.Candidates("x")) != 1 {
		t.Fatalf("candidates = %v", k.Candidates("x"))
	}
}

func TestLinksDedupAndSelfLoop(t *testing.T) {
	b := NewBuilder()
	a := b.AddEntity(Entity{Name: "A"})
	c := b.AddEntity(Entity{Name: "B"})
	b.AddLink(a, c)
	b.AddLink(a, c)
	b.AddLink(a, a) // ignored
	k := b.Build()
	if len(k.Outlinks(a)) != 1 || len(k.Inlinks(c)) != 1 {
		t.Fatalf("out=%v in=%v", k.Outlinks(a), k.Inlinks(c))
	}
	if len(k.Inlinks(a)) != 0 {
		t.Fatal("self link should be dropped")
	}
}

func TestRelatednessClusters(t *testing.T) {
	k := tinyKB()
	// Same-cluster entities share inlinkers → positive relatedness; cross
	// cluster → zero; isolated entity → zero. (Absolute WLM values are
	// modest at |A| = 6 because the log(|A|) normaliser is small.)
	if rel := k.Relatedness(0, 1); rel <= 0.3 {
		t.Errorf("intra-cluster relatedness = %f, want > 0.3", rel)
	}
	if rel := k.Relatedness(0, 3); rel != 0 {
		t.Errorf("cross-cluster relatedness = %f, want 0", rel)
	}
	if rel := k.Relatedness(0, 5); rel != 0 {
		t.Errorf("isolated relatedness = %f, want 0", rel)
	}
	if rel := k.Relatedness(2, 2); rel != 1 {
		t.Errorf("self relatedness = %f, want 1", rel)
	}
}

func TestRelatednessSymmetric(t *testing.T) {
	k := tinyKB()
	for i := EntityID(0); i < 6; i++ {
		for j := EntityID(0); j < 6; j++ {
			if a, b := k.Relatedness(i, j), k.Relatedness(j, i); math.Abs(a-b) > 1e-12 {
				t.Errorf("Rel(%d,%d)=%f != Rel(%d,%d)=%f", i, j, a, j, i, b)
			}
		}
	}
}

func TestRelatedPairs(t *testing.T) {
	k := tinyKB()
	pairs := k.RelatedPairs(0.3)
	// Expect exactly the basketball-cluster pairs (0,1),(0,2),(1,2). The
	// two-entity ML cluster has no *common* inlinker (each member is only
	// linked by the other), so WLM is zero there.
	if len(pairs) != 3 {
		t.Fatalf("pairs = %+v", pairs)
	}
	for _, p := range pairs {
		if p.Rel < 0.3 {
			t.Errorf("pair %+v below threshold", p)
		}
		if p.A > 2 || p.B > 2 {
			t.Errorf("unexpected cross-cluster pair %+v", p)
		}
	}
}

func TestKBStats(t *testing.T) {
	k := tinyKB()
	s := k.Stats()
	if s.Entities != 6 || s.Surfaces != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AmbiguousSurfaces != 2 { // "jordan" (3) and "michael jordan" (2)
		t.Fatalf("ambiguous = %d", s.AmbiguousSurfaces)
	}
	if s.MaxCandidates != 3 {
		t.Fatalf("max candidates = %d", s.MaxCandidates)
	}
	if s.AvgCandidates <= 1 || s.AvgCandidates >= 2 {
		t.Fatalf("avg candidates = %f", s.AvgCandidates)
	}
	if s.Links == 0 {
		t.Fatal("links missing")
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryMovieMusic.String() != "Movie&Music" || CategoryPerson.String() != "Person" {
		t.Fatal("category labels wrong")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category should still print")
	}
}

func TestComplementedLinkAndCounts(t *testing.T) {
	c := Complement(tinyKB())
	c.Link(0, Posting{Tweet: 1, User: 10, Time: 100})
	c.Link(0, Posting{Tweet: 2, User: 10, Time: 200})
	c.Link(0, Posting{Tweet: 3, User: 20, Time: 300})
	c.Link(3, Posting{Tweet: 4, User: 30, Time: 250})

	if c.Count(0) != 3 || c.Count(3) != 1 || c.Count(5) != 0 {
		t.Fatalf("counts: %d %d %d", c.Count(0), c.Count(3), c.Count(5))
	}
	if c.TotalCount() != 4 {
		t.Fatalf("total = %d", c.TotalCount())
	}
	if c.UserCount(0, 10) != 2 || c.UserCount(0, 99) != 0 {
		t.Fatal("user counts wrong")
	}
	if c.CommunitySize(0) != 2 {
		t.Fatalf("community size = %d", c.CommunitySize(0))
	}
	comm := c.Community(0)
	if len(comm) != 2 {
		t.Fatalf("community = %v", comm)
	}
}

func TestRecentCountWindow(t *testing.T) {
	c := Complement(tinyKB())
	for i, ts := range []int64{100, 200, 300, 400, 500} {
		c.Link(0, Posting{Tweet: int64(i), User: 1, Time: ts})
	}
	if got := c.RecentCount(0, 500, 150); got != 2 { // window [350,500]
		t.Fatalf("recent = %d, want 2", got)
	}
	if got := c.RecentCount(0, 500, 1000); got != 5 {
		t.Fatalf("recent = %d, want 5", got)
	}
	if got := c.RecentCount(0, 1000, 100); got != 0 {
		t.Fatalf("recent = %d, want 0", got)
	}
}

// TestRecentCountsWindow checks RecentCounts against RecentCount and its
// range against brute force: every count is the same at every instant of
// [from, until], and one step outside either end some posting of some
// entity enters or leaves its window. Link bumps the generation.
func TestRecentCountsWindow(t *testing.T) {
	c := Complement(tinyKB())
	es := []EntityID{0, 1, 2, 5}
	for i, ts := range []int64{100, 100, 200, 230, 300, 400, 500, 650} {
		c.Link(es[i%3], Posting{Tweet: int64(i), User: 1, Time: ts})
	}
	if g := c.Generation(); g != 8 {
		t.Fatalf("generation after 8 links = %d", g)
	}
	const tau = 150
	// inWindow is the set of postings inside some window at t, as
	// (entity, time) pairs in posting order.
	inWindow := func(t int64) [][2]int64 {
		var out [][2]int64
		for _, e := range es {
			for _, p := range c.Postings(e) {
				if t-tau <= p.Time && p.Time <= t {
					out = append(out, [2]int64{int64(e), p.Time})
				}
			}
		}
		return out
	}
	same := func(a, b [][2]int64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	counts := make([]int, len(es))
	for now := int64(0); now < 1000; now++ {
		gen, from, until := c.RecentCounts(es, now, tau, counts)
		if gen != c.Generation() {
			t.Fatalf("now=%d: generation %d, want %d", now, gen, c.Generation())
		}
		for i, e := range es {
			if counts[i] != c.RecentCount(e, now, tau) {
				t.Fatalf("now=%d: count[%d] = %d, RecentCount %d", now, e, counts[i], c.RecentCount(e, now, tau))
			}
		}
		if from > now || until < now {
			t.Fatalf("now=%d outside its range [%d, %d]", now, from, until)
		}
		want := inWindow(now)
		for at := max(from, -10); at <= min(until, 1100); at++ {
			if !same(inWindow(at), want) {
				t.Fatalf("now=%d: range [%d, %d] holds %d, whose window differs", now, from, until, at)
			}
		}
		if from > -10 && same(inWindow(from-1), want) {
			t.Fatalf("now=%d: range [%d, %d] stops short of %d", now, from, until, from-1)
		}
		if until < 1100 && same(inWindow(until+1), want) {
			t.Fatalf("now=%d: range [%d, %d] stops short of %d", now, from, until, until+1)
		}
	}
	// Near the ends of int64 the range stays inside the instants whose
	// window does not wrap, and a wrapped window is its instant alone.
	if _, from, _ := c.RecentCounts(es, math.MinInt64+tau+5, tau, counts); from != math.MinInt64+tau {
		t.Fatalf("range starts at %d, want the first unwrapped instant", from)
	}
	if _, from, until := c.RecentCounts(es, math.MinInt64+5, tau, counts); from != math.MinInt64+5 || until != from {
		t.Fatalf("wrapped window: range [%d, %d]", from, until)
	}
	c.Link(0, Posting{Tweet: 99, User: 1, Time: math.MaxInt64 - 10})
	if _, _, until := c.RecentCounts(es, math.MaxInt64-5, tau, counts); until != math.MaxInt64 || counts[0] != 1 {
		t.Fatalf("a posting that never leaves: range ends at %d, count %d", until, counts[0])
	}
}

func TestOutOfOrderInsertKeepsSorted(t *testing.T) {
	c := Complement(tinyKB())
	for _, ts := range []int64{300, 100, 200, 50} {
		c.Link(0, Posting{Tweet: ts, User: 1, Time: ts})
	}
	ps := c.Postings(0)
	for i := 1; i < len(ps); i++ {
		if ps[i].Time < ps[i-1].Time {
			t.Fatalf("postings unsorted: %+v", ps)
		}
	}
	if got := c.RecentCount(0, 300, 150); got != 2 { // cutoff 150 keeps 200, 300
		t.Fatalf("recent = %d", got)
	}
}

func TestEachUserCount(t *testing.T) {
	c := Complement(tinyKB())
	c.Link(0, Posting{Tweet: 1, User: 5, Time: 1})
	c.Link(0, Posting{Tweet: 2, User: 5, Time: 2})
	c.Link(0, Posting{Tweet: 3, User: 6, Time: 3})
	got := map[UserID]int{}
	c.EachUserCount(0, func(u UserID, n int) { got[u] = n })
	if got[5] != 2 || got[6] != 1 || len(got) != 2 {
		t.Fatalf("per-user counts = %v", got)
	}
}

func TestConcurrentLinkAndRead(t *testing.T) {
	c := Complement(tinyKB())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Link(EntityID(w%3), Posting{Tweet: int64(i), User: UserID(w), Time: int64(i)})
				_ = c.Count(0)
				_ = c.RecentCount(1, int64(i), 50)
				_ = c.CommunitySize(2)
			}
		}(w)
	}
	wg.Wait()
	if c.TotalCount() != 800 {
		t.Fatalf("total = %d", c.TotalCount())
	}
}

// Property: WLM relatedness is always within [0,1] and zero without common
// inlinkers, on randomly generated link structures.
func TestQuickRelatednessRange(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int((r >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		b := NewBuilder()
		n := 3 + next(20)
		for i := 0; i < n; i++ {
			b.AddEntity(Entity{Name: "e"})
		}
		m := next(5 * n)
		for i := 0; i < m; i++ {
			b.AddLink(EntityID(next(n)), EntityID(next(n)))
		}
		k := b.Build()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rel := k.Relatedness(EntityID(i), EntityID(j))
				if rel < 0 || rel > 1 || math.IsNaN(rel) {
					return false
				}
				if i != j && intersectSize(k.Inlinks(EntityID(i)), k.Inlinks(EntityID(j))) == 0 && rel != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
