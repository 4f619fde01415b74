package influence

import (
	"math"
	"testing"

	"microlink/internal/kb"
)

// setupCKB builds a complemented KB over 4 candidate entities:
//
//	e0 Michael Jordan (basketball), e1 Michael Jordan (ML),
//	e2 Air Jordan, e3 Jordan (country)
//
// Users:
//
//	u10 = @NBAOfficial: 8 tweets about e0 only (discriminative, prolific)
//	u11 = ML expert who also likes basketball: 3 about e0, 3 about e1
//	u12 = casual: 1 tweet about e0
//	u13 = sneakerhead: 5 tweets about e2
func setupCKB() (*kb.Complemented, []kb.EntityID) {
	b := kb.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddEntity(kb.Entity{Name: "e"})
	}
	c := kb.Complement(b.Build())
	id := int64(0)
	add := func(e kb.EntityID, u kb.UserID, n int) {
		for i := 0; i < n; i++ {
			id++
			c.Link(e, kb.Posting{Tweet: id, User: u, Time: id})
		}
	}
	add(0, 10, 8)
	add(0, 11, 3)
	add(1, 11, 3)
	add(0, 12, 1)
	add(2, 13, 5)
	return c, []kb.EntityID{0, 1, 2, 3}
}

func TestInfluenceZeroWithoutPostings(t *testing.T) {
	c, cands := setupCKB()
	for _, m := range []Method{TFIDF, Entropy} {
		est := New(c, m)
		if inf := est.Influence(99, 0, cands); inf != 0 {
			t.Errorf("%v: influence of stranger = %f", m, inf)
		}
		if inf := est.Influence(10, 3, cands); inf != 0 {
			t.Errorf("%v: influence in empty community = %f", m, inf)
		}
	}
}

func TestDiscriminativeUserWinsBothMethods(t *testing.T) {
	c, cands := setupCKB()
	for _, m := range []Method{TFIDF, Entropy} {
		est := New(c, m)
		nba := est.Influence(10, 0, cands)
		mixed := est.Influence(11, 0, cands)
		casual := est.Influence(12, 0, cands)
		if nba <= mixed {
			t.Errorf("%v: @NBAOfficial (%f) should beat the mixed user (%f)", m, nba, mixed)
		}
		if nba <= casual {
			t.Errorf("%v: @NBAOfficial (%f) should beat the casual user (%f)", m, nba, casual)
		}
	}
}

func TestTFIDFPenalizesBreadth(t *testing.T) {
	c, cands := setupCKB()
	est := New(c, TFIDF)
	// u11 mentions 2 of 4 candidates → log(4/2); u10 mentions 1 → log(4/1).
	u10 := est.Influence(10, 0, cands)
	want10 := (8.0 / 12.0) * math.Log(4)
	if math.Abs(u10-want10) > 1e-9 {
		t.Errorf("u10 influence = %f, want %f", u10, want10)
	}
	u11 := est.Influence(11, 0, cands)
	want11 := (3.0 / 12.0) * math.Log(2)
	if math.Abs(u11-want11) > 1e-9 {
		t.Errorf("u11 influence = %f, want %f", u11, want11)
	}
}

func TestEntropyToleratesIncidentalPosting(t *testing.T) {
	// The paper's motivating case: an influential user who *occasionally*
	// tweets about another candidate should lose little influence under
	// the entropy estimator but a lot under tf-idf.
	b := kb.NewBuilder()
	for i := 0; i < 2; i++ {
		b.AddEntity(kb.Entity{Name: "e"})
	}
	c := kb.Complement(b.Build())
	id := int64(0)
	add := func(e kb.EntityID, u kb.UserID, n int) {
		for i := 0; i < n; i++ {
			id++
			c.Link(e, kb.Posting{Tweet: id, User: u, Time: id})
		}
	}
	// u1: 20 postings about e0, 1 incidental about e1.
	add(0, 1, 20)
	add(1, 1, 1)
	// u2: 20 postings about e0 only.
	add(0, 2, 20)
	cands := []kb.EntityID{0, 1}

	tf := New(c, TFIDF)
	en := New(c, Entropy)
	tfRatio := tf.Influence(1, 0, cands) / tf.Influence(2, 0, cands)
	enRatio := en.Influence(1, 0, cands) / en.Influence(2, 0, cands)
	if tfRatio != 0 {
		t.Errorf("tfidf ratio = %f, want 0 (log(2/2) = 0 kills u1 entirely)", tfRatio)
	}
	if enRatio < 0.15 {
		t.Errorf("entropy ratio = %f; incidental posting should not erase influence", enRatio)
	}
}

func TestTopInfluentialOrderAndK(t *testing.T) {
	c, cands := setupCKB()
	est := New(c, Entropy)
	top := est.TopInfluential(0, cands, 2)
	if len(top) != 2 || top[0] != 10 {
		t.Fatalf("top = %v", top)
	}
	all := est.TopInfluential(0, cands, 0)
	if len(all) != 3 {
		t.Fatalf("all = %v", all)
	}
	if est.Method() != Entropy {
		t.Fatal("method accessor")
	}
}

func TestTopInfluentialCacheInvalidation(t *testing.T) {
	c, cands := setupCKB()
	est := New(c, Entropy)
	before := est.TopInfluential(0, cands, 1)
	if before[0] != 10 {
		t.Fatalf("before = %v", before)
	}
	// A new hyper-active discriminative user dethrones u10 — but only
	// after invalidation.
	for i := 0; i < 50; i++ {
		c.Link(0, kb.Posting{Tweet: int64(1000 + i), User: 77, Time: int64(1000 + i)})
	}
	cached := est.TopInfluential(0, cands, 1)
	if cached[0] != 10 {
		t.Fatalf("cache should still answer 10, got %v", cached)
	}
	est.Invalidate(0)
	after := est.TopInfluential(0, cands, 1)
	if after[0] != 77 {
		t.Fatalf("after invalidation = %v", after)
	}
}

func TestMethodString(t *testing.T) {
	if TFIDF.String() != "tfidf" || Entropy.String() != "entropy" {
		t.Fatal("method names")
	}
}

func TestInfluenceEmptyCandidateSet(t *testing.T) {
	c, _ := setupCKB()
	est := New(c, TFIDF)
	if inf := est.Influence(10, 0, nil); inf != 0 {
		// |E_m| = 0 → log(0/·); guarded by mentioned == 0.
		t.Errorf("influence with empty candidate set = %f", inf)
	}
}

// TestInvalidateDropsSetsRankedAgainstEntity: a posting on A moves its
// author's entropy over every candidate set containing A, so
// Invalidate(A) must also drop B's set ranked against {A, B}. The cached
// answer afterwards must be what a fresh Estimator computes.
func TestInvalidateDropsSetsRankedAgainstEntity(t *testing.T) {
	kbb := kb.NewBuilder()
	for i := 0; i < 3; i++ {
		kbb.AddEntity(kb.Entity{Name: "e"})
	}
	c := kb.Complement(kbb.Build())
	id := int64(0)
	add := func(e kb.EntityID, u kb.UserID, n int) {
		for i := 0; i < n; i++ {
			id++
			c.Link(e, kb.Posting{Tweet: id, User: u, Time: id})
		}
	}
	const a, b, other = 0, 1, 2
	add(b, 1, 4) // u1: B only, top of B
	add(b, 2, 3) // u2: B only, fewer postings
	add(other, 3, 2)
	pair := []kb.EntityID{a, b}
	est := New(c, Entropy)
	if top := est.TopInfluential(b, pair, 1); top[0] != 1 {
		t.Fatalf("before: top of B = %v, want u1", top)
	}
	est.TopInfluential(a, pair, 1)
	est.TopInfluential(other, []kb.EntityID{other}, 1)

	add(a, 1, 4) // u1 now splits between A and B: its entropy over {A,B} rises
	dropped := est.Invalidate(a)
	got := est.TopInfluential(b, pair, 1)
	want := New(c, Entropy).TopInfluential(b, pair, 1)
	if len(got) != 1 || got[0] != want[0] || want[0] != 2 {
		t.Fatalf("after Invalidate(A): top of B = %v, fresh estimator %v (want u2)", got, want)
	}
	if len(dropped) != 2 || dropped[0] != a || dropped[1] != b {
		t.Fatalf("Invalidate(A) = %v, want [A B] without the unrelated entity", dropped)
	}
}
