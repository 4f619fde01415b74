package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"microlink/internal/candidate"
	"microlink/internal/core"
	"microlink/internal/graph"
	"microlink/internal/influence"
	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/store"
	"microlink/internal/tweets"
)

// fixture is a miniature serving stack: 32 users on a ring-with-chords
// graph behind a streaming reach substrate, 8 entities behind 4
// ambiguous surfaces.
type fixture struct {
	stream *reach.Streaming
	linker *core.Linker
	live   *tweets.LiveStore
	reg    *obs.Registry
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	const users, entities = 32, 8
	b := kb.NewBuilder()
	for e := 0; e < entities; e++ {
		b.AddEntity(kb.Entity{Name: fmt.Sprintf("entity-%d", e)})
		b.AddSurface(fmt.Sprintf("s%d", e/2), kb.EntityID(e))
	}
	k := b.Build()
	ckb := kb.Complement(k)
	id := int64(0)
	for e := 0; e < entities; e++ {
		for i := 0; i < 6; i++ {
			id++
			ckb.Link(kb.EntityID(e), kb.Posting{
				Tweet: id, User: kb.UserID((e*5 + i*3) % users), Time: int64(40 + i),
			})
		}
	}
	gb := graph.NewBuilder(users)
	for u := 0; u < users; u++ {
		gb.AddEdge(kb.UserID(u), kb.UserID((u+1)%users))
		gb.AddEdge(kb.UserID(u), kb.UserID((u+7)%users))
	}
	st := reach.NewStreaming(gb.Build(), reach.TwoHopOptions{MaxHops: 3})
	inf := influence.New(ckb, influence.Entropy)
	reg := obs.NewRegistry()
	rec := recency.NewScorer(ckb, nil, recency.Options{Tau: 100, Theta1: 3, NoPropagation: true}, reg)
	return &fixture{
		stream: st,
		linker: core.New(ckb, candidate.NewIndex(k, candidate.Options{}), st, inf, rec, core.Config{}, reg),
		live:   tweets.NewLiveStore(),
		reg:    reg,
	}
}

func (f *fixture) pipeline(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := New(Deps{Linker: f.linker, Stream: f.stream, Live: f.live, Metrics: f.reg}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func closePipeline(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func streamTweet(id int64, user kb.UserID) *tweets.Tweet {
	return &tweets.Tweet{
		ID: id, User: user, Time: 1000 + id, Text: "s0 chatter",
		Mentions: []tweets.Mention{{Surface: "s0", Truth: kb.NoEntity}},
	}
}

func TestNewRejectsMissingDeps(t *testing.T) {
	f := newFixture(t)
	for _, d := range []Deps{
		{},
		{Linker: f.linker, Stream: f.stream, Metrics: f.reg},
		{Linker: f.linker, Stream: f.stream, Live: f.live},
	} {
		if _, err := New(d, Config{}); !errors.Is(err, errDeps) {
			t.Fatalf("New(%+v) = %v, want errDeps", d, err)
		}
	}
}

// TestPipelineAppliesEvents pushes one event of each kind through the
// pipeline and checks each mutation path fired: the live corpus grew,
// the live graph absorbed the edge, the feedback landed in the KB, and
// staleness reflects the unrebuilt edge until a forced swap clears it.
func TestPipelineAppliesEvents(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{})
	ctx := context.Background()

	if err := p.Submit(ctx, store.TweetRecord(streamTweet(1, 3), nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(ctx, store.FollowRecord(2, 19)); err != nil {
		t.Fatal(err)
	}
	fbTweet := streamTweet(2, 4)
	if err := p.Submit(ctx, store.FeedbackRecord(fbTweet, []kb.EntityID{1})); err != nil {
		t.Fatal(err)
	}
	closePipeline(t, p)

	st := p.Stats()
	if st.AppliedTweets != 1 || st.AppliedFollows != 1 || st.AppliedFeedback != 1 {
		t.Fatalf("applied = %+v, want 1/1/1", st)
	}
	if f.live.Len() != 1 {
		t.Errorf("live store len = %d, want 1", f.live.Len())
	}
	// (2, 19) is not a ring/chord edge, so it must have been new.
	if st.InsertedEdges != 1 {
		t.Errorf("inserted edges = %d, want 1", st.InsertedEdges)
	}
	if st.Staleness != 1 {
		t.Errorf("staleness = %d, want 1 before rebuild", st.Staleness)
	}

	p.ForceRebuild()
	st = p.Stats()
	if st.Staleness != 0 {
		t.Errorf("staleness = %d after forced rebuild, want 0", st.Staleness)
	}
	if st.Rebuilds != 1 || st.Swaps != 1 {
		t.Errorf("rebuilds/swaps = %d/%d, want 1/1", st.Rebuilds, st.Swaps)
	}
	// The swapped-in arena serves the new edge: 2 → 19 at distance 1.
	if r := f.stream.R(2, 19); r != 1 {
		t.Errorf("R(2,19) = %v after swap, want 1", r)
	}
}

// TestRebuildThreshold checks the applier kicks the rebuild manager once
// enough edges accumulate, without any manual ForceRebuild.
func TestRebuildThreshold(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{RebuildAfterEdges: 4})
	ctx := context.Background()

	for i := 0; i < 8; i++ {
		// Long chords, none in the seed graph.
		if err := p.Submit(ctx, store.FollowRecord(kb.UserID(i), kb.UserID((i+13)%32))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold rebuild never fired: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	closePipeline(t, p)
}

// TestInheritedStalenessTriggersRebuild: a substrate that arrives stale
// — a reopened snapshot's pending edges — at or past the threshold is
// rebuilt without waiting for a follow. The stream holds tweets only, so
// only New can have kicked the rebuild manager.
func TestInheritedStalenessTriggersRebuild(t *testing.T) {
	f := newFixture(t)
	pending := make([][2]graph.NodeID, 8)
	for i := range pending {
		pending[i] = [2]graph.NodeID{graph.NodeID(i), graph.NodeID((i + 13) % 32)}
	}
	if n := f.stream.InsertEdges(pending); n != len(pending) {
		t.Fatalf("inserted %d of %d pending edges", n, len(pending))
	}
	p := f.pipeline(t, Config{RebuildAfterEdges: 4})
	ctx := context.Background()
	for i := int64(1); i <= 3; i++ {
		if err := p.Submit(ctx, store.TweetRecord(streamTweet(i, kb.UserID(i)), nil)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inherited staleness never triggered a rebuild: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	closePipeline(t, p)
	if st := p.Stats(); st.Staleness != 0 || st.AppliedFollows != 0 {
		t.Fatalf("after the inherited rebuild: %+v, want staleness 0 and no follows", st)
	}
}

// TestRebuildInterval checks the timer path: staleness left behind by a
// too-high edge threshold is cleared by the periodic rebuild.
func TestRebuildInterval(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{RebuildAfterEdges: -1, RebuildInterval: 10 * time.Millisecond})
	ctx := context.Background()
	if err := p.Submit(ctx, store.FollowRecord(5, 20)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Swaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval rebuild never fired: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	closePipeline(t, p)
}

// TestCloseDrainsAndRejects: everything buffered before Close applies;
// intake afterwards is refused on both paths; double Close errors.
func TestCloseDrainsAndRejects(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{Queue: 256, MaxBatch: 8})
	ctx := context.Background()

	const n = 100
	for i := 0; i < n; i++ {
		if err := p.Submit(ctx, store.TweetRecord(streamTweet(int64(i+1), kb.UserID(i%32)), nil)); err != nil {
			t.Fatal(err)
		}
	}
	closePipeline(t, p)

	if got := p.Stats().AppliedTweets; got != n {
		t.Fatalf("applied %d of %d buffered tweets after Close", got, n)
	}
	if p.Offer(store.FollowRecord(1, 2)) {
		t.Error("Offer accepted after Close")
	}
	if err := p.Submit(ctx, store.FollowRecord(1, 2)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := p.Close(cctx); err != ErrClosed {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// TestOfferShedsWhenSaturated hammers a one-slot queue; the producer far
// outruns the applier (one follow per batch at MaxBatch 1), so
// some offers must shed — and every shed must be counted.
func TestOfferShedsWhenSaturated(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{Queue: 1, MaxBatch: 1})

	accepted, shed := 0, 0
	for i := 0; i < 5000; i++ {
		if p.Offer(store.FollowRecord(kb.UserID(i%32), kb.UserID((i+11)%32))) {
			accepted++
		} else {
			shed++
		}
	}
	closePipeline(t, p)
	st := p.Stats()
	if shed == 0 {
		t.Skip("applier kept up with 5000 offers on a 1-slot queue; shed path covered elsewhere")
	}
	if st.Dropped != int64(shed) {
		t.Errorf("dropped counter = %d, want %d", st.Dropped, shed)
	}
	if st.AppliedFollows != int64(accepted) {
		t.Errorf("applied follows = %d, want %d accepted", st.AppliedFollows, accepted)
	}
}

// sliceSource replays a fixed event list as a Source, then io.EOF.
type sliceSource struct{ evs []store.Record }

func (s *sliceSource) Next(context.Context) (store.Record, error) {
	if len(s.evs) == 0 {
		return store.Record{}, io.EOF
	}
	ev := s.evs[0]
	s.evs = s.evs[1:]
	return ev, nil
}

func chordFollows(n int) []store.Record {
	evs := make([]store.Record, n)
	for i := range evs {
		evs[i] = store.FollowRecord(kb.UserID(i%32), kb.UserID((i+13)%32))
	}
	return evs
}

// holdApplier parks batch application behind the snapshot barrier until
// the returned release runs. With MaxBatch 1 and Queue 1 the pipeline
// then holds at most two events — one in the applier, one queued — so
// the intake queue fills deterministically.
func holdApplier(p *Pipeline) (release func()) {
	held, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.Barrier(func(func(Journal)) { close(held); <-rel })
	}()
	<-held
	return func() { close(rel); <-done }
}

// TestRun drives Pipeline.Run from a slice Source under both backpressure
// policies: io.EOF ends it with nil, BlockOnFull delivers every event,
// shedding counts every event a full queue refused, and a cancelled ctx
// surfaces as ctx.Err().
func TestRun(t *testing.T) {
	const n = 40
	ctx := context.Background()

	t.Run("BlockOnFull", func(t *testing.T) {
		f := newFixture(t)
		p := f.pipeline(t, Config{Queue: 1, MaxBatch: 1, BlockOnFull: true})
		if err := p.Run(ctx, &sliceSource{evs: chordFollows(n)}); err != nil {
			t.Fatalf("Run = %v, want nil at io.EOF", err)
		}
		closePipeline(t, p)
		if st := p.Stats(); st.AppliedFollows != n || st.Dropped != 0 {
			t.Fatalf("applied %d, dropped %d; want %d, 0", st.AppliedFollows, st.Dropped, n)
		}
	})

	t.Run("Shed", func(t *testing.T) {
		f := newFixture(t)
		p := f.pipeline(t, Config{Queue: 1, MaxBatch: 1})
		release := holdApplier(p)
		err := p.Run(ctx, &sliceSource{evs: chordFollows(n)})
		release()
		if err != nil {
			t.Fatalf("Run = %v, want nil at io.EOF", err)
		}
		closePipeline(t, p)
		st := p.Stats()
		if st.Dropped < n-2 || st.AppliedFollows+st.Dropped != n {
			t.Fatalf("applied %d, dropped %d of %d; want ≥ %d dropped, every event accounted for",
				st.AppliedFollows, st.Dropped, n, n-2)
		}
	})

	t.Run("Cancelled", func(t *testing.T) {
		f := newFixture(t)
		p := f.pipeline(t, Config{Queue: 1, MaxBatch: 1, BlockOnFull: true})
		release := holdApplier(p)
		for p.Offer(store.FollowRecord(0, 13)) {
		}
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		err := p.Run(cctx, &sliceSource{evs: chordFollows(n)})
		release()
		closePipeline(t, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run on a cancelled ctx = %v, want context.Canceled", err)
		}
	})
}

// TestMetricsRegistered drives every counted path — tweets; follows, one
// a duplicate and one outside the graph; feedback; a shed Offer; a
// ForceRebuild; a failing journal — and checks that every Stats counter
// holds the expected count and equals its /metrics line: Stats reads the
// exported counters, it keeps no copy of its own.
func TestMetricsRegistered(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{Queue: 1, MaxBatch: 1})
	ctx := context.Background()
	for _, ev := range []store.Record{
		store.TweetRecord(streamTweet(1, 2), nil),
		store.TweetRecord(streamTweet(2, 5), nil),
		store.FollowRecord(1, 14),
		store.FollowRecord(1, 14), // duplicate
		store.FollowRecord(2, 32), // outside the graph
		store.FeedbackRecord(streamTweet(3, 4), []kb.EntityID{1}),
	} {
		if err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	release := holdApplier(p)
	accepted := int64(0)
	for p.Offer(store.FollowRecord(1, 14)) { // until one is shed
		accepted++
	}
	release()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().AppliedFollows < 3+accepted {
		if time.Now().After(deadline) {
			t.Fatalf("queued follows never applied: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	p.ForceRebuild()
	disk := errors.New("disk full")
	p.Barrier(func(set func(Journal)) { set(failingJournal{disk}) })
	if _, err := p.Apply(store.TweetRecord(streamTweet(4, 6), nil)); !errors.Is(err, disk) {
		t.Fatalf("Apply with a failing journal: %v, want %v", err, disk)
	}
	closePipeline(t, p)

	st := p.Stats()
	for _, c := range []struct {
		field  string
		got    int64
		want   int64
		series string
	}{
		{"AppliedTweets", st.AppliedTweets, 3, `microlink_ingest_events_total{kind="tweet"}`},
		{"AppliedFollows", st.AppliedFollows, 3 + accepted, `microlink_ingest_events_total{kind="follow"}`},
		{"AppliedFeedback", st.AppliedFeedback, 1, `microlink_ingest_events_total{kind="feedback"}`},
		{"InsertedEdges", st.InsertedEdges, 1, "microlink_ingest_edges_inserted_total"},
		{"Dropped", st.Dropped, 1, "microlink_ingest_dropped_total"},
		{"Rebuilds", st.Rebuilds, 1, "microlink_ingest_rebuilds_total"},
		{"JournalFailures", st.JournalFailures, 1, "microlink_ingest_journal_failures_total"},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %d, want %d", c.field, c.got, c.want)
		}
		if line := exposed(t, f.reg, c.series); line != c.got {
			t.Errorf("Stats.%s = %d, but /metrics exposes %s %d", c.field, c.got, c.series, line)
		}
	}
	for _, name := range []string{
		"microlink_ingest_queue_depth",
		"microlink_ingest_rebuild_seconds",
		"microlink_ingest_staleness_events",
	} {
		if !registryHas(f.reg, name) {
			t.Errorf("metric %s not registered", name)
		}
	}
}

// recordingJournal keeps every record the applier tees.
type recordingJournal struct{ recs []store.Record }

func (j *recordingJournal) Append(recs []store.Record) error {
	j.recs = append(j.recs, recs...)
	return nil
}

// TestFollowOutsideGraphIsConsumed: a follow naming a user the graph
// does not have is consumed and counted, but neither inserted (a rebuild
// would panic on it) nor journaled (replay would reject it, making the
// directory unopenable); the valid follow beside it lands normally.
func TestFollowOutsideGraphIsConsumed(t *testing.T) {
	f := newFixture(t)
	j := &recordingJournal{}
	p, err := New(Deps{Linker: f.linker, Stream: f.stream, Live: f.live, Metrics: f.reg, Journal: j}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range [][2]kb.UserID{{2, 32}, {-1, 3}, {2, 19}} {
		if err := p.Submit(ctx, store.FollowRecord(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	closePipeline(t, p)
	p.ForceRebuild() // must not panic

	st := p.Stats()
	if st.AppliedFollows != 3 || st.InsertedEdges != 1 || st.Staleness != 0 {
		t.Fatalf("stats = %+v, want 3 follows consumed, 1 edge inserted, staleness 0", st)
	}
	if len(j.recs) != 1 || j.recs[0].U != 2 || j.recs[0].V != 19 {
		t.Fatalf("journal holds %+v, want the one valid follow", j.recs)
	}
}

func registryHas(reg *obs.Registry, name string) bool {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return false
	}
	return strings.Contains(buf.String(), name)
}

// exposed returns the value of one series of reg's Prometheus exposition.
func exposed(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("series %s not exposed", series)
	return 0
}

// TestIntakeRejectsMalformedEvents: an event the applier cannot apply —
// the zero value, an unknown kind, a tweet or feedback event without its
// tweet — is refused at intake: Offer reports it unaccepted without
// counting a drop, Submit returns ErrInvalidEvent, and the applier never
// sees it. Valid events after them apply normally.
func TestIntakeRejectsMalformedEvents(t *testing.T) {
	f := newFixture(t)
	p := f.pipeline(t, Config{})
	ctx := context.Background()
	bad := []store.Record{
		{},
		{Kind: 9, U: 1, V: 2},
		store.TweetRecord(nil, nil),
		store.FeedbackRecord(nil, []kb.EntityID{1}),
	}
	for _, ev := range bad {
		if p.Offer(ev) {
			t.Errorf("Offer(%+v) accepted", ev)
		}
		if err := p.Submit(ctx, ev); !errors.Is(err, ErrInvalidEvent) {
			t.Errorf("Submit(%+v) = %v, want ErrInvalidEvent", ev, err)
		}
	}
	for _, ev := range []store.Record{
		store.TweetRecord(streamTweet(1, 3), nil),
		store.FollowRecord(2, 19),
		store.FeedbackRecord(streamTweet(2, 4), []kb.EntityID{1}),
	} {
		if err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	closePipeline(t, p)
	st := p.Stats()
	if st.AppliedTweets != 1 || st.AppliedFollows != 1 || st.AppliedFeedback != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1/1/1 applied and no drops", st)
	}
}

// TestTweetJournaledWithResolvedLinks: a tweet submitted without links
// is journaled with exactly the links Linker.LinkTweet resolved and fed
// back — never nil, even for a tweet without mentions — so replay can
// reapply it without the linker.
func TestTweetJournaledWithResolvedLinks(t *testing.T) {
	f := newFixture(t)
	tws := []*tweets.Tweet{
		streamTweet(1, 3),
		{ID: 2, User: 5, Time: 1002, Text: "no mentions here"},
	}
	want := make([][]kb.EntityID, len(tws))
	for i, tw := range tws {
		want[i] = f.linker.LinkTweet(tw) // nothing applied yet: the applier sees this state
	}
	j := &recordingJournal{}
	p, err := New(Deps{Linker: f.linker, Stream: f.stream, Live: f.live, Metrics: f.reg, Journal: j}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tw := range tws {
		if err := p.Submit(ctx, store.TweetRecord(tw, nil)); err != nil {
			t.Fatal(err)
		}
	}
	closePipeline(t, p)
	if len(j.recs) != len(tws) {
		t.Fatalf("journal holds %d records, want %d", len(j.recs), len(tws))
	}
	for i, r := range j.recs {
		if r.Kind != store.RecTweet || r.Tweet != tws[i] || r.Links == nil || !slices.Equal(r.Links, want[i]) {
			t.Errorf("record %d = %+v, want tweet %d with links %v (non-nil)", i, r, tws[i].ID, want[i])
		}
	}
}

// failingJournal refuses every append.
type failingJournal struct{ err error }

func (j failingJournal) Append([]store.Record) error { return j.err }

// TestApplyReturnsAfterJournal: Apply runs on the caller's goroutine and
// returns the journaled record — a tweet with the links it resolved —
// after the tee, with the state already changed; a follow outside the
// graph comes back as Deps.Apply's rejection, a malformed event as
// ErrInvalidEvent, and every call after Close as ErrClosed.
func TestApplyReturnsAfterJournal(t *testing.T) {
	f := newFixture(t)
	tw := streamTweet(1, 3)
	want := f.linker.LinkTweet(tw)
	j := &recordingJournal{}
	p, err := New(Deps{Linker: f.linker, Stream: f.stream, Live: f.live, Metrics: f.reg, Journal: j}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Apply(store.TweetRecord(tw, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != store.RecTweet || rec.Tweet != tw || !slices.Equal(rec.Links, want) {
		t.Fatalf("Apply returned %+v, want tweet 1 with links %v", rec, want)
	}
	if len(j.recs) != 1 || !slices.Equal(j.recs[0].Links, want) || f.live.Len() != 1 {
		t.Fatalf("after Apply: journal %+v, live %d; want the tweet in both", j.recs, f.live.Len())
	}
	if _, err := p.Apply(store.FeedbackRecord(streamTweet(2, 4), []kb.EntityID{1})); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(store.FollowRecord(2, 32)); err == nil || !strings.Contains(err.Error(), "2 → 32") {
		t.Fatalf("follow outside the graph: %v, want the rejection naming it", err)
	}
	if _, err := p.Apply(store.FeedbackRecord(nil, nil)); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("malformed event: %v, want ErrInvalidEvent", err)
	}
	closePipeline(t, p)
	if _, err := p.Apply(store.FollowRecord(2, 19)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	st := p.Stats()
	if st.AppliedTweets != 1 || st.AppliedFeedback != 1 || st.AppliedFollows != 1 || len(j.recs) != 2 {
		t.Fatalf("stats %+v, journal %d records; want 1/1/1 applied and 2 journaled", st, len(j.recs))
	}
}

// TestApplyReturnsJournalError: a failed WAL tee is Apply's error, not
// only a counter; the state has changed all the same.
func TestApplyReturnsJournalError(t *testing.T) {
	f := newFixture(t)
	disk := errors.New("disk full")
	p, err := New(Deps{Linker: f.linker, Stream: f.stream, Live: f.live, Metrics: f.reg, Journal: failingJournal{disk}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p)
	rec, err := p.Apply(store.TweetRecord(streamTweet(1, 3), nil))
	if !errors.Is(err, disk) {
		t.Fatalf("Apply with a failing journal: %v, want %v", err, disk)
	}
	if st := p.Stats(); rec.Kind != store.RecTweet || rec.Links == nil || f.live.Len() != 1 || st.AppliedTweets != 1 || st.JournalFailures != 1 {
		t.Fatalf("record %+v, live %d, stats %+v; want the tweet applied with its links and one journal failure", rec, f.live.Len(), st)
	}
}
