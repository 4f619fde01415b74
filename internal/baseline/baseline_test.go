package baseline

import (
	"testing"

	"microlink/internal/candidate"
	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// fixture entities.
const (
	eMJBB  = kb.EntityID(0) // Michael Jordan (basketball) — popular
	eMJML  = kb.EntityID(1) // Michael Jordan (ML)
	eBulls = kb.EntityID(2)
	eNBA   = kb.EntityID(3)
	eICML  = kb.EntityID(4)
)

// fixtureKB wires a basketball cluster {MJBB, Bulls, NBA} and an ML
// cluster {MJML, ICML}; MJBB has many more inlinks (popularity prior).
func fixtureKB() *kb.KB {
	b := kb.NewBuilder()
	b.AddEntity(kb.Entity{Name: "Michael Jordan (basketball)", Context: map[string]float32{"basketball": 1, "nba": 1, "bulls": 1, "dunk": 1}})
	b.AddEntity(kb.Entity{Name: "Michael Jordan (ML)", Context: map[string]float32{"machine": 1, "learning": 1, "bayesian": 1, "icml": 1}})
	b.AddEntity(kb.Entity{Name: "Chicago Bulls", Context: map[string]float32{"basketball": 1, "chicago": 1, "nba": 1}})
	b.AddEntity(kb.Entity{Name: "NBA", Context: map[string]float32{"basketball": 1, "league": 1}})
	b.AddEntity(kb.Entity{Name: "ICML", Context: map[string]float32{"machine": 1, "learning": 1, "conference": 1}})
	// Extra article entities 5..14 to provide inlink mass.
	for i := 0; i < 10; i++ {
		b.AddEntity(kb.Entity{Name: "article"})
	}
	b.AddSurface("jordan", eMJBB)
	b.AddSurface("jordan", eMJML)
	b.AddSurface("michael jordan", eMJBB)
	b.AddSurface("michael jordan", eMJML)
	b.AddSurface("bulls", eBulls)
	b.AddSurface("nba", eNBA)
	b.AddSurface("icml", eICML)
	// Basketball cluster co-linked by articles 5..12 (8 co-linkers).
	for a := kb.EntityID(5); a <= 12; a++ {
		b.AddLink(a, eMJBB)
		b.AddLink(a, eBulls)
		b.AddLink(a, eNBA)
	}
	// ML cluster co-linked by articles 13..14.
	for a := kb.EntityID(13); a <= 14; a++ {
		b.AddLink(a, eMJML)
		b.AddLink(a, eICML)
	}
	return b.Build()
}

func fixtureIndex(k *kb.KB) *candidate.Index {
	return candidate.NewIndex(k, candidate.Options{MaxEdit: 1})
}

func mention(s string) tweets.Mention { return tweets.Mention{Surface: s} }

func TestOnTheFlyPopularityPrior(t *testing.T) {
	k := fixtureKB()
	l := NewOnTheFly(k, fixtureIndex(k), OnTheFlyOptions{})
	// Bare "jordan" with no context: the popular basketball Jordan wins.
	tw := &tweets.Tweet{Text: "jordan", Mentions: []tweets.Mention{mention("jordan")}}
	got := l.LinkTweet(tw)
	if len(got) != 1 || got[0] != eMJBB {
		t.Fatalf("got %v, want MJ (basketball) by commonness", got)
	}
}

func TestOnTheFlyContextSimilarity(t *testing.T) {
	k := fixtureKB()
	l := NewOnTheFly(k, fixtureIndex(k), OnTheFlyOptions{WContext: 1}) // context only
	tw := &tweets.Tweet{
		Text:     "jordan talk on bayesian machine learning",
		Mentions: []tweets.Mention{mention("jordan")},
	}
	if got := l.LinkTweet(tw); got[0] != eMJML {
		t.Fatalf("got %v, want MJ (ML) by context", got)
	}
}

func TestOnTheFlyCoherenceVoting(t *testing.T) {
	k := fixtureKB()
	l := NewOnTheFly(k, fixtureIndex(k), OnTheFlyOptions{WCoherence: 1}) // coherence only
	// "icml" co-occurring should pull "jordan" to the ML entity.
	tw := &tweets.Tweet{
		Text:     "jordan keynote at icml",
		Mentions: []tweets.Mention{mention("jordan"), mention("icml")},
	}
	got := l.LinkTweet(tw)
	if got[0] != eMJML || got[1] != eICML {
		t.Fatalf("got %v, want [MJML ICML]", got)
	}
	// And "bulls" should pull it to basketball.
	tw2 := &tweets.Tweet{
		Text:     "jordan and the bulls",
		Mentions: []tweets.Mention{mention("jordan"), mention("bulls")},
	}
	if got := l.LinkTweet(tw2); got[0] != eMJBB {
		t.Fatalf("got %v, want MJBB", got)
	}
}

func TestOnTheFlyUnknownMention(t *testing.T) {
	k := fixtureKB()
	l := NewOnTheFly(k, fixtureIndex(k), OnTheFlyOptions{})
	tw := &tweets.Tweet{Text: "zzz", Mentions: []tweets.Mention{mention("zzzzzzz")}}
	if got := l.LinkTweet(tw); got[0] != kb.NoEntity {
		t.Fatalf("got %v, want NoEntity", got)
	}
}

func TestOnTheFlyEmptyMentions(t *testing.T) {
	k := fixtureKB()
	l := NewOnTheFly(k, fixtureIndex(k), OnTheFlyOptions{})
	if got := l.LinkTweet(&tweets.Tweet{Text: "no mentions"}); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if l.Name() != "on-the-fly" {
		t.Fatal("name")
	}
}

func historyStore() *tweets.Store {
	// User 1: heavy ML history. User 2: basketball fan. User 3: no history
	// beyond a single ambiguous tweet.
	var ts []tweets.Tweet
	id := int64(0)
	add := func(u kb.UserID, text string, ms ...tweets.Mention) *tweets.Tweet {
		id++
		ts = append(ts, tweets.Tweet{ID: id, User: u, Time: id, Text: text, Mentions: ms})
		return &ts[len(ts)-1]
	}
	for i := 0; i < 5; i++ {
		add(1, "reading about machine learning at icml", mention("icml"))
	}
	add(1, "jordan gave a talk", mention("jordan"))
	for i := 0; i < 5; i++ {
		add(2, "watching nba tonight", mention("nba"))
	}
	add(2, "jordan is the greatest", mention("jordan"))
	add(3, "jordan", mention("jordan"))
	return tweets.NewStore(ts)
}

func TestCollectiveUsesUserHistory(t *testing.T) {
	k := fixtureKB()
	store := historyStore()
	l := NewCollective(k, fixtureIndex(k), store)
	if l.Name() != "collective" {
		t.Fatal("name")
	}
	// The ML-heavy user's ambiguous "jordan" should go to MJML because
	// her ICML mentions propagate interest onto the ML cluster.
	var mlTweet, bbTweet *tweets.Tweet
	for _, tw := range store.ByUser(1) {
		if len(tw.Mentions) > 0 && tw.Mentions[0].Surface == "jordan" {
			mlTweet = tw
		}
	}
	for _, tw := range store.ByUser(2) {
		if len(tw.Mentions) > 0 && tw.Mentions[0].Surface == "jordan" {
			bbTweet = tw
		}
	}
	if got := l.LinkTweet(mlTweet); got[0] != eMJML {
		t.Fatalf("ML user's jordan = %v, want MJML", got)
	}
	if got := l.LinkTweet(bbTweet); got[0] != eMJBB {
		t.Fatalf("basketball user's jordan = %v, want MJBB", got)
	}
}

func TestCollectiveInactiveUserFallsBackToPrior(t *testing.T) {
	k := fixtureKB()
	store := historyStore()
	l := NewCollective(k, fixtureIndex(k), store)
	// User 3 has a single bare tweet: nothing to propagate, the popularity
	// prior decides — the weakness our framework targets.
	tw := store.ByUser(3)[0]
	if got := l.LinkTweet(tw); got[0] != eMJBB {
		t.Fatalf("inactive user's jordan = %v, want the prior's MJBB", got)
	}
}

func TestCollectiveUnknownTweetSingleton(t *testing.T) {
	k := fixtureKB()
	store := historyStore()
	l := NewCollective(k, fixtureIndex(k), store)
	fresh := &tweets.Tweet{ID: 999, User: 42, Text: "jordan", Mentions: []tweets.Mention{mention("jordan")}}
	got := l.LinkTweet(fresh)
	if len(got) != 1 || got[0] != eMJBB {
		t.Fatalf("fresh tweet linked to %v", got)
	}
}

func TestCollectiveLinkUserShape(t *testing.T) {
	k := fixtureKB()
	store := historyStore()
	l := NewCollective(k, fixtureIndex(k), store)
	res := l.LinkUser(1)
	if len(res) != len(store.ByUser(1)) {
		t.Fatalf("result rows = %d", len(res))
	}
	for i, tw := range store.ByUser(1) {
		if len(res[i]) != len(tw.Mentions) {
			t.Fatalf("row %d: %d assignments for %d mentions", i, len(res[i]), len(tw.Mentions))
		}
	}
}
