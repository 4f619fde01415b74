package microlink

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"microlink/internal/eval"
	"microlink/internal/influence"
	"microlink/internal/reach"
	"microlink/internal/recency"
)

func evalByTweetLength(l EvalLinker, ts []Tweet, maxLen int) []eval.Accuracy {
	return eval.ByTweetLength(l, ts, maxLen)
}

// facadeWorld is a small world for fast facade-level tests, separate from
// the big integration world.
func facadeWorld() *World {
	return Generate(WorldParams{Seed: 5, Users: 400, Topics: 6, EntitiesPerTopic: 10, Days: 20})
}

// TestBuildReachVariants builds every substrate the facade can serve —
// the two ReachKinds Build offers, and the naive oracle and a static
// 2-hop cover through PrebuiltReach — and checks each answers R(self) = 1.
func TestBuildReachVariants(t *testing.T) {
	w := facadeWorld()
	variants := map[string]Options{
		"closure":   {Reach: ReachClosure},
		"streaming": {Reach: ReachStreaming},
		"naive":     {PrebuiltReach: reach.NewNaive(w.Graph, reach.DefaultMaxHops)},
		"two-hop":   {PrebuiltReach: reach.BuildTwoHop(w.Graph, reach.TwoHopOptions{})},
	}
	for name, opts := range variants {
		opts.TruthComplement = true
		sys := Build(w, opts)
		if sys.Reach == nil {
			t.Fatalf("%s: nil reach index", name)
		}
		if r := sys.Reach.R(0, 0); r != 1 {
			t.Errorf("%s: R(self) = %f", name, r)
		}
	}
}

// TestTheta2DefaultIsOneConstant: zero Recency options build the same
// propagation network, and so serve the same answers, as an explicit
// θ₂ = recency.DefaultTheta2.
func TestTheta2DefaultIsOneConstant(t *testing.T) {
	w := facadeWorld()
	zero := Build(w, Options{TruthComplement: true})
	explicit := Build(w, Options{TruthComplement: true, Recency: recency.Options{Theta2: recency.DefaultTheta2}})
	if !bytes.Equal(topKDump(t, zero, w), topKDump(t, explicit, w)) {
		t.Fatal("zero Recency options serve different top-k than θ₂ = DefaultTheta2")
	}
}

func TestTruthComplementCounts(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{TruthComplement: true})
	active := w.Store.FilterByActivity(10, 0)
	if int(sys.CKB.TotalCount()) != active.MentionCount() {
		t.Fatalf("postings %d != active mentions %d", sys.CKB.TotalCount(), active.MentionCount())
	}
}

func TestComplementThetaChangesCorpus(t *testing.T) {
	w := facadeWorld()
	d10 := Build(w, Options{TruthComplement: true, ComplementTheta: 10})
	d90 := Build(w, Options{TruthComplement: true, ComplementTheta: 90})
	if d90.CKB.TotalCount() >= d10.CKB.TotalCount() {
		t.Fatalf("θ=90 complement (%d) should be smaller than θ=10 (%d)",
			d90.CKB.TotalCount(), d10.CKB.TotalCount())
	}
}

func TestSearchPersonalizedAndOrdered(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{TruthComplement: true})
	var surface string
	w.KB.EachSurface(func(form string, cs []EntityID) {
		if surface == "" && len(cs) >= 2 {
			surface = form
		}
	})
	now := w.Horizon()
	found := false
	for u := 0; u < w.Graph.NumNodes() && !found; u += 7 {
		hits := sys.Search(UserID(u), now, surface, 1)
		if len(hits) == 0 {
			continue
		}
		found = true
		for i := 1; i < len(hits); i++ {
			if hits[i].Posting.Time > hits[i-1].Posting.Time {
				t.Fatal("results not newest-first")
			}
		}
		// All hits must be linked to the entity the user's linker picked.
		top := sys.Linker.TopK(UserID(u), now, surface, 1)
		for _, h := range hits {
			if h.Entity != top[0].Entity {
				t.Fatalf("hit entity %d != linked %d", h.Entity, top[0].Entity)
			}
		}
		if hits[0].Text == "" {
			t.Error("hit text not resolved")
		}
	}
	if !found {
		t.Skip("no user cleared the threshold for this surface")
	}
}

// TestSearchResolvesLiveTweetText: a tweet that arrived through ingest
// is found by search with its text, not just its posting — the live
// corpus is consulted when the world's store misses.
func TestSearchResolvesLiveTweetText(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{Reach: ReachStreaming})
	var surface string
	w.KB.EachSurface(func(form string, cs []EntityID) {
		if surface == "" && len(cs) >= 2 {
			surface = form
		}
	})
	var id int64
	for _, tw := range w.Store.All() {
		id = max(id, tw.ID+1)
	}
	now := w.Horizon() + 60
	const user = UserID(3)
	top := sys.Linker.TopK(user, now, surface, 1)
	if len(top) == 0 {
		t.Fatalf("no entity clears the threshold for %q", surface)
	}
	tw := &Tweet{ID: id, User: user, Time: now, Text: "live news on " + surface,
		Mentions: []Mention{{Surface: surface, Start: 3, End: 4, Truth: top[0].Entity}}}

	pipe, err := sys.StartIngest(IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := pipe.Submit(ctx, TweetEvent(tw, []EntityID{top[0].Entity})); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, h := range sys.Search(user, now, surface, 8) {
		if h.Posting.Tweet == id {
			if h.Text != tw.Text {
				t.Fatalf("live hit text = %q, want %q", h.Text, tw.Text)
			}
			return
		}
	}
	t.Fatalf("search for %q did not return live tweet %d", surface, id)
}

func TestSearchNoMentions(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{TruthComplement: true})
	if hits := sys.Search(0, w.Horizon(), "zzz qqq xxx", 2); len(hits) != 0 {
		t.Fatalf("mention-free query returned %d hits", len(hits))
	}
}

func TestDescribeMentionsComponents(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{TruthComplement: true, InfluenceMethod: influence.TFIDF})
	d := sys.Describe()
	for _, want := range []string{"users", "entities", "tweets", "tfidf", "α=0.60"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q: %s", want, d)
		}
	}
}

func TestFollowUpdatesInterest(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	// Find an ambiguous surface and a user whose top pick can flip by
	// following the influential user of a losing candidate.
	var surface string
	var cands []EntityID
	w.KB.EachSurface(func(form string, cs []EntityID) {
		if surface == "" && len(cs) >= 2 {
			surface, cands = form, cs
		}
	})
	now := w.Horizon()
	user := UserID(w.Graph.NumNodes() - 1)
	before := sys.Linker.ScoreCandidates(user, now, surface)
	if len(before) < 2 {
		t.Skip("not enough candidates")
	}
	loser := before[len(before)-1].Entity
	pipe, err := sys.StartIngest(IngestConfig{RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := pipe.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	// Follow every influential member of the loser's community directly.
	for _, v := range sys.Influence.TopInfluential(loser, cands, 5) {
		if _, err := pipe.Apply(FollowEvent(user, v)); err != nil {
			t.Fatal(err)
		}
	}
	// The follows sit in the live graph; answers move only once a rebuild
	// installs them.
	if mid := sys.Linker.ScoreCandidates(user, now, surface); !reflect.DeepEqual(mid, before) {
		t.Fatalf("scores moved before the rebuild: %+v → %+v", before, mid)
	}
	if err := sys.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	after := sys.Linker.ScoreCandidates(user, now, surface)
	var bi, ai float64
	for _, s := range before {
		if s.Entity == loser {
			bi = s.Interest
		}
	}
	for _, s := range after {
		if s.Entity == loser {
			ai = s.Interest
		}
	}
	if ai <= bi {
		t.Fatalf("interest in the loser did not rise after following its community: %f → %f", bi, ai)
	}

	// A static system has no write path for follows.
	static := Build(w, Options{TruthComplement: true})
	if _, err := static.StartIngest(IngestConfig{}); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("static reach: StartIngest = %v, want ErrNotStreaming", err)
	}
}

// TestFig6cShape asserts the Appendix C tweet-length finding: the
// baselines' accuracy climbs with more mentions per tweet (more coherence
// signal) while our lead is largest on single-mention tweets.
func TestFig6cShape(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{})
	test := sys.TestSet.All()
	ours := evalByLength(sys.Linker, test)
	otf := evalByLength(sys.OnTheFly(), test)
	if ours[0] <= otf[0] {
		t.Errorf("len-1 lead missing: ours %.4f vs on-the-fly %.4f", ours[0], otf[0])
	}
	if otf[2] <= otf[0] {
		t.Errorf("on-the-fly should improve with length: len1 %.4f len3 %.4f", otf[0], otf[2])
	}
	lead1 := ours[0] - otf[0]
	lead3 := ours[2] - otf[2]
	if lead1 <= lead3 {
		t.Errorf("our lead should be largest at length 1: %.4f vs %.4f", lead1, lead3)
	}
}

func evalByLength(l EvalLinker, ts []Tweet) []float64 {
	buckets := evalByTweetLength(l, ts, 3)
	out := make([]float64, len(buckets))
	for i, a := range buckets {
		out[i] = a.MentionAccuracy()
	}
	return out
}

// TestConcurrentLinkAndFeedback drives the online loop from many
// goroutines at once — readers scoring candidates while writers feed
// confirmed links back — exactly the mixed workload a linkd deployment
// sees. Run with -race in CI.
func TestConcurrentLinkAndFeedback(t *testing.T) {
	w := facadeWorld()
	sys := Build(w, Options{TruthComplement: true})
	test := sys.TestSet.All()
	if len(test) == 0 {
		t.Skip("empty test set")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: replay feedback.
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < min(len(test), 120); i += 2 {
				tw := &test[i]
				sys.Linker.Feedback(tw, sys.Linker.LinkTweet(tw))
			}
		}(k)
	}
	// Readers: hammer scoring and search.
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tw := &test[(i*7+k)%len(test)]
				sys.Linker.LinkTweet(tw)
				if i > 200 {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(stop)
}

func TestWorldEventsAccessible(t *testing.T) {
	w := facadeWorld()
	if len(w.Events) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range w.Events {
		if ev.Start >= ev.End {
			t.Fatalf("bad event window %+v", ev)
		}
		if ev.Entity < 0 || int(ev.Entity) >= w.KB.NumEntities() {
			t.Fatalf("bad event entity %+v", ev)
		}
	}
}
