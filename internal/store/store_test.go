package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/synth"
	"microlink/internal/tweets"
)

func sampleTweet(id int64) tweets.Tweet {
	return tweets.Tweet{
		ID:   id,
		User: kb.UserID(7),
		Time: 1000 + id,
		Text: "galaxy launch @ court",
		Mentions: []tweets.Mention{
			{Surface: "galaxy", Start: 0, End: 1, Truth: 3, Kind: tweets.KindProfile},
			{Surface: "court", Start: 3, End: 4, Truth: 9, Kind: tweets.KindHot},
		},
	}
}

func sampleRecords() []Record {
	tw1 := sampleTweet(1)
	tw2 := sampleTweet(2)
	tw3 := sampleTweet(3)
	return []Record{
		TweetRecord(&tw1, []kb.EntityID{3, 9}),
		TweetRecord(&tw2, nil), // the codec keeps nil links nil (replay then rejects them)
		FollowRecord(4, 11),
		FeedbackRecord(&tw3, []kb.EntityID{5}),
	}
}

func sampleGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(4, 5)
	return b.Build()
}

// fakeIndex stands in for a reach arena at the store layer, which treats
// the reach segment as an opaque self-checked blob.
type fakeIndex struct{ data []byte }

func (f fakeIndex) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.data)
	return int64(n), err
}

// sampleWorld is a hand-built dataset over sampleGraph: four entities,
// one ambiguous surface, two corpus tweets, and nil lists and maps beside
// empty ones, which the world codec keeps apart.
func sampleWorld() *synth.Dataset {
	kbb := kb.NewBuilder()
	for _, name := range []string{"galaxy one", "court two", "launch three"} {
		kbb.AddEntity(kb.Entity{Name: name, Category: kb.CategoryProduct, Context: map[string]float32{"space": 1, name: 2}})
	}
	kbb.AddEntity(kb.Entity{Name: "bare"}) // nil Context
	kbb.AddSurface("galaxy", 0)
	kbb.AddSurface("galaxy", 2)
	kbb.AddSurface("court", 1)
	kbb.AddLink(0, 1)
	kbb.AddLink(2, 1)
	kbb.AddLink(1, 0)
	corpus := []tweets.Tweet{sampleTweet(5), sampleTweet(4)}
	for i := range corpus {
		corpus[i].User = 3
		corpus[i].Mentions[0].Truth = 0
		corpus[i].Mentions[1].Truth = kb.NoEntity
	}
	return &synth.Dataset{
		Params:       synth.Params{Seed: 42, Users: 6, Topics: 3, MentionAmbig: 0.5},
		Graph:        sampleGraph(),
		KB:           kbb.Build(),
		Store:        tweets.NewStore(corpus),
		Events:       []synth.Event{{Entity: 2, Start: 100, End: 200}},
		EntityTopic:  []int{0, 1, 2, 0},
		UserTopic:    []int{0, 1, 2, 0, 1, 2},
		Broadcasters: [][]kb.UserID{{0}, nil, {}},
		SurfacesOf:   [][]string{{"galaxy one", "galaxy"}, {"court two", "court"}, {"launch three", "galaxy"}, nil},
	}
}

func sampleSnapshot() Snapshot {
	return Snapshot{
		World:   sampleWorld(),
		Graph:   sampleGraph(),
		Pending: [][2]graph.NodeID{{0, 2}, {3, 4}, {3, 5}},
		Postings: [][]kb.Posting{
			{{Tweet: 1, User: 7, Time: 1001}, {Tweet: 2, User: 8, Time: 1002}},
			nil,
			{{Tweet: 3, User: 7, Time: 1003}},
		},
		Tweets:  []tweets.Tweet{sampleTweet(1), sampleTweet(2)},
		MaxHops: 2,
		Index:   fakeIndex{data: []byte("MLRI-stand-in arena bytes")},
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func commitSample(t *testing.T, s *Store) uint64 {
	t.Helper()
	seq, err := s.Commit(sampleSnapshot())
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return seq
}

func TestEmptyDirectory(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if s.Manifest() != nil {
		t.Fatal("fresh directory should have no manifest")
	}
	if _, err := s.LoadGraph(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadGraph on empty dir: got %v, want ErrNoSnapshot", err)
	}
	if _, err := s.Replay(func(*Record) error { return nil }); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Replay on empty dir: got %v, want ErrNoSnapshot", err)
	}
	if err := s.Append(sampleRecords()); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Append before Rotate: got %v, want ErrNoWAL", err)
	}
	if _, err := s.Commit(sampleSnapshot()); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Commit before Rotate: got %v, want ErrNoWAL", err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	commitSample(t, s)
	want := sampleRecords()
	if err := s.Append(want); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	var got []Record
	stats, err := s2.Replay(func(r *Record) error {
		cp := *r
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.TornTail {
		t.Error("clean close reported a torn tail")
	}
	if stats.Records != int64(len(want)) {
		t.Fatalf("replayed %d records, want %d", stats.Records, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, want)
	}
	if got[1].Links != nil {
		t.Error("nil links did not survive the round trip")
	}
}

func TestWALSpansRotations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	recs := sampleRecords()
	if err := s.Append(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[2:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	var got []Record
	stats, err := s2.Replay(func(r *Record) error { got = append(got, *r); return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Files != 2 {
		t.Errorf("visited %d files, want 2", stats.Files)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay across rotation lost order:\n got %+v\nwant %+v", got, recs)
	}
}

// walPath returns the single WAL file in dir, failing if there isn't
// exactly one.
func walPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one WAL file, got %v (%v)", matches, err)
	}
	return matches[0]
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	recs := sampleRecords()
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop into the final record's checksum: the crash signature.
	path := walPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	var n int
	stats, err := s2.Replay(func(*Record) error { n++; return nil })
	if err != nil {
		t.Fatalf("Replay over torn tail: %v", err)
	}
	if !stats.TornTail {
		t.Error("torn tail not reported")
	}
	if n != len(recs)-1 {
		t.Fatalf("replayed %d records, want %d (last torn away)", n, len(recs)-1)
	}

	// The torn record was truncated off: a second pass sees a clean file.
	stats2, err := s2.Replay(func(*Record) error { return nil })
	if err != nil {
		t.Fatalf("second Replay: %v", err)
	}
	if stats2.TornTail {
		t.Error("tail still torn after truncating pass")
	}
	if stats2.Records != int64(len(recs)-1) {
		t.Errorf("second pass replayed %d records, want %d", stats2.Records, len(recs)-1)
	}
}

func TestWALChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the first record's payload — mid-file damage,
	// not a torn tail.
	path := walPath(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[walHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	_, err = s2.Replay(func(*Record) error { return nil })
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Replay over flipped byte: got %v, want ErrWALCorrupt", err)
	}
}

func TestWALVersionSkew(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := walPath(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[4] = 0xEE // version low byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	_, err = s2.Replay(func(*Record) error { return nil })
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("Replay with version skew: got %v, want ErrWAL", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	seq, err := s.Commit(snap)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if seq != 1 {
		t.Errorf("first commit seq = %d, want 1", seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	man := s2.Manifest()
	if man == nil {
		t.Fatal("manifest missing after reopen")
	}
	if man.Seq != 1 || man.Reach != ReachStreaming || man.MaxHops != 2 {
		t.Errorf("manifest fields wrong: %+v", man)
	}
	if man.World != snap.World.Params {
		t.Errorf("world params did not round-trip: %+v", man.World)
	}
	w, err := s2.LoadWorld()
	if err != nil {
		t.Fatalf("LoadWorld: %v", err)
	}
	if !reflect.DeepEqual(w, snap.World) {
		t.Fatalf("world differs:\n got %+v\nwant %+v", w, snap.World)
	}

	g, err := s2.LoadGraph()
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if g.NumNodes() != snap.Graph.NumNodes() || g.NumEdges() != snap.Graph.NumEdges() {
		t.Fatalf("graph shape %d/%d, want %d/%d",
			g.NumNodes(), g.NumEdges(), snap.Graph.NumNodes(), snap.Graph.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !reflect.DeepEqual(g.Out(graph.NodeID(u)), snap.Graph.Out(graph.NodeID(u))) {
			t.Fatalf("out-edges of %d differ", u)
		}
	}

	pending, err := s2.LoadPending()
	if err != nil {
		t.Fatalf("LoadPending: %v", err)
	}
	if !reflect.DeepEqual(pending, snap.Pending) {
		t.Fatalf("pending edges %v, want %v", pending, snap.Pending)
	}

	ps, err := s2.LoadPostings()
	if err != nil {
		t.Fatalf("LoadPostings: %v", err)
	}
	if len(ps) != len(snap.Postings) {
		t.Fatalf("got %d posting lists, want %d", len(ps), len(snap.Postings))
	}
	for e := range ps {
		if len(ps[e]) == 0 && len(snap.Postings[e]) == 0 {
			continue
		}
		if !reflect.DeepEqual(ps[e], snap.Postings[e]) {
			t.Fatalf("postings for entity %d differ: %+v vs %+v", e, ps[e], snap.Postings[e])
		}
	}

	ts, err := s2.LoadTweets()
	if err != nil {
		t.Fatalf("LoadTweets: %v", err)
	}
	if !reflect.DeepEqual(ts, snap.Tweets) {
		t.Fatalf("tweets differ:\n got %+v\nwant %+v", ts, snap.Tweets)
	}

	rc, err := s2.OpenReach()
	if err != nil {
		t.Fatalf("OpenReach: %v", err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(raw, []byte("MLRI-stand-in arena bytes")) {
		t.Fatalf("reach segment bytes differ (%v): %q", err, raw)
	}
}

func TestCommitPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	// Second snapshot: rotate (barrier), commit, old WAL + segments gone.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if seq := commitSample(t, s); seq != 2 {
		t.Fatalf("second commit seq = %d, want 2", seq)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseWALName(name); ok && seq < 2 {
			t.Errorf("stale WAL file %s survived prune", name)
		}
		if isSegName(name) && name[:10] != "seg-000002" {
			t.Errorf("stale segment %s survived prune", name)
		}
	}

	// The pruned directory must still replay (zero records).
	stats, err := s.ReplayForTest()
	if err != nil {
		t.Fatalf("Replay after prune: %v", err)
	}
	if stats.Records != 0 {
		t.Errorf("replayed %d records from pruned WAL, want 0", stats.Records)
	}
}

// ReplayForTest closes the open WAL (replay must not race appends) and
// replays into the void.
func (s *Store) ReplayForTest() (ReplayStats, error) {
	if err := s.Close(); err != nil {
		return ReplayStats{}, err
	}
	return s.Replay(func(*Record) error { return nil })
}

func segmentPath(t *testing.T, s *Store, kind string) string {
	t.Helper()
	p, err := s.segPath(kind)
	if err != nil {
		t.Fatalf("segPath(%s): %v", kind, err)
	}
	return p
}

// TestWALVersion1Refused: a WAL file from before the checksum pair
// (version 1, CRC-64 frames) is ErrWAL naming the version and the
// re-snapshot, not a checksum failure on its first record.
func TestWALVersion1Refused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:], 1)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = mustOpen(t, dir).Replay(func(*Record) error { return nil })
	if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), "version 1,") || !strings.Contains(err.Error(), "re-snapshot") {
		t.Fatalf("Replay of a version-1 WAL: got %v, want ErrWAL naming version 1 and the re-snapshot", err)
	}
}

// segmentLoads maps a store segment to its loader, for the damage tests.
var segmentLoads = map[string]func(*Store) error{
	segGraphName:  func(s *Store) error { _, err := s.LoadGraph(); return err },
	segTweetsName: func(s *Store) error { _, err := s.LoadTweets(); return err },
	segWorldName:  func(s *Store) error { _, err := s.LoadWorld(); return err },
}

// damageSegment commits the sample snapshot in a fresh directory, hands
// the seg file's path and bytes to damage, and returns the store.
func damageSegment(t *testing.T, seg string, damage func(path string, b []byte) error) *Store {
	t.Helper()
	s := mustOpen(t, t.TempDir())
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	path := segmentPath(t, s, seg)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := damage(path, b); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentVersionSkew(t *testing.T) {
	for _, seg := range []string{segGraphName, segWorldName} {
		s := damageSegment(t, seg, func(path string, b []byte) error {
			b[4] = 0xEE // version low byte
			return os.WriteFile(path, b, 0o644)
		})
		if err := segmentLoads[seg](s); !errors.Is(err, ErrSegmentVersion) {
			t.Errorf("load %s with version skew: got %v, want ErrSegmentVersion", seg, err)
		}
	}
}

// TestSegmentVersion1Refused: a segment from before the checksum pair
// (version 1, CRC-64 trailer) is ErrSegmentVersion naming the version and
// the re-snapshot, whatever its kind.
func TestSegmentVersion1Refused(t *testing.T) {
	for seg := range segmentLoads {
		s := damageSegment(t, seg, func(path string, b []byte) error {
			binary.LittleEndian.PutUint16(b[4:], 1)
			return os.WriteFile(path, b, 0o644)
		})
		err := segmentLoads[seg](s)
		if !errors.Is(err, ErrSegmentVersion) || !strings.Contains(err.Error(), "version 1,") || !strings.Contains(err.Error(), "re-snapshot") {
			t.Errorf("load %s at version 1: got %v, want ErrSegmentVersion naming version 1 and the re-snapshot", seg, err)
		}
	}
}

func TestSegmentChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	for _, kind := range []string{segCKBName, segTweetsName} {
		path := segmentPath(t, s, kind)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-12] ^= 0xFF // inside payload or checksum either way
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var loadErr error
		switch kind {
		case segCKBName:
			_, loadErr = s.LoadPostings()
		case segTweetsName:
			_, loadErr = s.LoadTweets()
		}
		if !errors.Is(loadErr, ErrSegment) {
			t.Errorf("load %s with flipped byte: got %v, want ErrSegment", kind, loadErr)
		}
	}
}

func TestSegmentTruncated(t *testing.T) {
	for _, seg := range []string{segGraphName, segWorldName} {
		s := damageSegment(t, seg, func(path string, b []byte) error { return os.Truncate(path, int64(len(b)/2)) })
		if err := segmentLoads[seg](s); !errors.Is(err, ErrSegment) {
			t.Errorf("load truncated %s: got %v, want ErrSegment", seg, err)
		}
	}
}

func TestSegmentBadMagic(t *testing.T) {
	for _, seg := range []string{segTweetsName, segWorldName} {
		s := damageSegment(t, seg, func(path string, b []byte) error {
			copy(b, "NOPE")
			return os.WriteFile(path, b, 0o644)
		})
		if err := segmentLoads[seg](s); !errors.Is(err, ErrSegment) {
			t.Errorf("load %s with bad magic: got %v, want ErrSegment", seg, err)
		}
	}
}

// TestCommitCarriesWorldForward: a commit without a world names the
// committed world segment, which pruning then keeps; a first commit
// without one has nothing to carry and fails.
func TestCommitCarriesWorldForward(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	snap.World = nil
	if _, err := s.Commit(snap); !errors.Is(err, ErrNoCarry) {
		t.Fatalf("first commit without a world: got %v, want ErrNoCarry", err)
	}
	commitSample(t, s)
	first := s.Manifest().Segments[segWorldName]
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(snap); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	if man.Seq != 2 || man.Segments[segWorldName] != first || man.World != sampleWorld().Params {
		t.Fatalf("second commit: seq %d, world segment %q, params %+v; want 2, %q, the first commit's",
			man.Seq, man.Segments[segWorldName], man.World, first)
	}
	w, err := s.LoadWorld()
	if err != nil {
		t.Fatalf("LoadWorld after carry-forward: %v", err)
	}
	if !reflect.DeepEqual(w, sampleWorld()) {
		t.Fatal("carried-forward world differs")
	}
}

// TestCommitCarriesArenaForward: a commit with a nil Index carries the
// committed graph and reach files forward together and writes the other
// segments; a commit with one prunes the carried pair. A carry with
// nothing committed, or a Graph without its Index, is refused.
func TestCommitCarriesArenaForward(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	snap := sampleSnapshot()
	snap.Graph, snap.Index = nil, nil
	if _, err := s.Commit(snap); !errors.Is(err, ErrNoCarry) {
		t.Fatalf("first commit without an arena: got %v, want ErrNoCarry", err)
	}
	half := sampleSnapshot()
	half.Index = nil
	if _, err := s.Commit(half); err == nil || errors.Is(err, ErrNoCarry) {
		t.Fatalf("commit with a graph but no arena: got %v, want a refusal", err)
	}
	commitSample(t, s)
	snap.World = nil
	snap.Pending = snap.Pending[:1]
	if _, err := s.Commit(snap); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	for name, want := range map[string]uint64{segWorldName: 1, segGraphName: 1, segReachName: 1, segPendingName: 2, segCKBName: 2, segTweetsName: 2} {
		if got := man.Segments[name]; got != segName(want, name) {
			t.Errorf("commit 2 names %s segment %q, want %q", name, got, segName(want, name))
		}
	}
	if g, err := s.LoadGraph(); err != nil || !reflect.DeepEqual(g, sampleGraph()) {
		t.Fatalf("carried graph: %v", err)
	}
	if p, err := s.LoadPending(); err != nil || len(p) != 1 {
		t.Fatalf("commit 2's pending edges: %v, %v", p, err)
	}
	rc, err := s.OpenReach()
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil || !bytes.Equal(b, sampleSnapshot().Index.(fakeIndex).data) {
		t.Fatalf("carried arena: %q, %v", b, err)
	}

	snap.Graph, snap.Index = sampleGraph(), sampleSnapshot().Index
	if _, err := s.Commit(snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segGraphName, segReachName} {
		if _, err := os.Stat(filepath.Join(dir, segName(1, name))); !os.IsNotExist(err) {
			t.Errorf("%s: %v after a commit wrote a new arena, want it pruned", segName(1, name), err)
		}
		if got := s.Manifest().Segments[name]; got != segName(3, name) {
			t.Errorf("commit 3 names %s segment %q, want %q", name, got, segName(3, name))
		}
	}
}

// TestResumeReusesIdleWAL: after Replay, Resume appends to the newest
// WAL file only when it holds just its header; a file holding records,
// or one whose torn tail replay cut off, gets a fresh successor.
func TestResumeReusesIdleWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wals := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	reopen := func() *Store {
		t.Helper()
		s := mustOpen(t, dir)
		if _, err := s.Replay(func(*Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Header-only: reused, and the record lands in it.
	s = reopen()
	if err := s.Append(sampleRecords()[2:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wals(); len(got) != 1 {
		t.Fatalf("idle WAL not reused: %v", got)
	}

	// Holding a record: a fresh file follows it.
	s = reopen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := wals()
	if len(got) != 2 {
		t.Fatalf("WAL with records reused: %v", got)
	}

	// Torn down to its header: never appended to again.
	for _, p := range got {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(dir, walName(s.Manifest().WALSeq))
	if err := os.WriteFile(torn, append(bytes.Clone(walHeader), 2, 9), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	stats, err := s.Replay(func(*Record) error { return nil })
	if err != nil || !stats.TornTail {
		t.Fatalf("Replay of a torn header-only file: %+v, %v", stats, err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sampleRecords()[2:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(torn); err != nil || fi.Size() != walHeaderSize {
		t.Fatalf("torn WAL file after resume: %v, %v; want %d header bytes", fi, err, walHeaderSize)
	}
	if got := wals(); len(got) != 2 {
		t.Fatalf("append after a torn tail did not rotate: %v", got)
	}
}

// TestReplayTornWALHeader: a crash between a WAL file's create and its
// header write leaves 0–5 bytes and no records. As the newest file that
// is a torn tail: Replay reports it, rewrites the header, and a second
// reopen replays cleanly — also when the torn file is the manifest's own
// barrier file, where records appended after the repair must replay.
// Anywhere earlier in the sequence it is corruption, on every reopen.
func TestReplayTornWALHeader(t *testing.T) {
	header := walMagic + "\x01\x00"
	// dirWithTornWAL commits a snapshot, appends one record to its WAL
	// file and adds a torn successor; with mid set, a valid header-only
	// file follows the torn one.
	dirWithTornWAL := func(t *testing.T, torn string, mid bool) string {
		t.Helper()
		dir := t.TempDir()
		s := mustOpen(t, dir)
		if err := s.Rotate(); err != nil {
			t.Fatal(err)
		}
		commitSample(t, s)
		if err := s.Append(sampleRecords()[2:3]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seq := s.Manifest().WALSeq + 1
		if err := os.WriteFile(filepath.Join(dir, walName(seq)), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if mid {
			if err := os.WriteFile(filepath.Join(dir, walName(seq+1)), []byte(header), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	reopen := func(t *testing.T, dir string) (ReplayStats, error) {
		t.Helper()
		s := mustOpen(t, dir)
		stats, err := s.Replay(func(*Record) error { return nil })
		if err != nil {
			return stats, err
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		return stats, s.Close()
	}

	for _, torn := range []string{"", header[:3]} {
		t.Run(fmt.Sprintf("tail %d bytes", len(torn)), func(t *testing.T) {
			dir := dirWithTornWAL(t, torn, false)
			stats, err := reopen(t, dir)
			if err != nil || !stats.TornTail || stats.Records != 1 {
				t.Fatalf("first reopen: %+v, %v; want the torn tail reported and 1 record", stats, err)
			}
			wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range wals {
				if fi, err := os.Stat(p); err != nil || fi.Size() < walHeaderSize {
					t.Fatalf("WAL file %s left without a whole header: %v, %v", p, fi, err)
				}
			}
			stats, err = reopen(t, dir)
			if err != nil || stats.TornTail || stats.Records != 1 {
				t.Fatalf("second reopen: %+v, %v; want a clean replay of 1 record", stats, err)
			}
		})
		t.Run(fmt.Sprintf("barrier file %d bytes", len(torn)), func(t *testing.T) {
			// Two commits leave the barrier at wal-000002.log and prune
			// everything below it, so the torn file is the only WAL.
			dir := t.TempDir()
			s := mustOpen(t, dir)
			for i := 0; i < 2; i++ {
				if err := s.Rotate(); err != nil {
					t.Fatal(err)
				}
				commitSample(t, s)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			barrier := s.Manifest().WALSeq
			if barrier < 2 {
				t.Fatalf("barrier WAL seq %d, want >= 2", barrier)
			}
			if err := os.WriteFile(filepath.Join(dir, walName(barrier)), []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			s = mustOpen(t, dir)
			if stats, err := s.Replay(func(*Record) error { return nil }); err != nil || !stats.TornTail || stats.Records != 0 {
				t.Fatalf("first reopen: %+v, %v; want the torn tail reported and no records", stats, err)
			}
			if err := s.Resume(); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(sampleRecords()[2:3]); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			stats, err := reopen(t, dir)
			if err != nil || stats.TornTail || stats.Records != 1 {
				t.Fatalf("second reopen: %+v, %v; want a clean replay of the 1 record appended after the repair", stats, err)
			}
		})
		t.Run(fmt.Sprintf("mid-sequence %d bytes", len(torn)), func(t *testing.T) {
			dir := dirWithTornWAL(t, torn, true)
			for i := 0; i < 2; i++ {
				if _, err := reopen(t, dir); !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("reopen %d: %v, want ErrWALCorrupt", i, err)
				}
			}
		})
	}
}

// TestReplayTornRecordMidSequence: a record torn at the end of a WAL file
// that is not the newest is corruption, and stays corruption: Replay
// leaves the file as it found it, so a second reopen fails the same way
// instead of replaying past the lost record.
func TestReplayTornRecordMidSequence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName(s.Manifest().WALSeq))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s := mustOpen(t, dir)
		if _, err := s.Replay(func(*Record) error { return nil }); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("reopen %d: %v, want ErrWALCorrupt", i, err)
		}
	}
	if fi2, err := os.Stat(path); err != nil || fi2.Size() != fi.Size()-3 {
		t.Fatalf("mid-sequence file changed by Replay: %v, %v", fi2, err)
	}
}

func TestManifestDamage(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A committed manifest naming a retired kind, the static 2-hop cover
	// or the transitive closure: the directory must be re-snapshotted
	// from a cold Build.
	for _, retired := range []string{"twohop", "closure"} {
		b := bytes.Replace(committed, []byte(`"reach": "streaming"`), []byte(`"reach": "`+retired+`"`), 1)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrManifest) || !bytes.Contains([]byte(err.Error()), []byte(`"`+retired+`"`)) {
			t.Fatalf("Open with reach kind %s: got %v, want ErrManifest naming it", retired, err)
		}
	}

	// Corrupt JSON.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("Open with corrupt manifest: got %v, want ErrManifest", err)
	}

	// Version skew.
	if err := os.WriteFile(path, []byte(`{"version":99,"seq":1,"wal_seq":1,"reach":"twohop","segments":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("Open with manifest version skew: got %v, want ErrManifest", err)
	}

	// Unknown reach kind.
	if err := os.WriteFile(path, []byte(`{"version":1,"seq":1,"wal_seq":1,"reach":"psychic","segments":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("Open with unknown reach kind: got %v, want ErrManifest", err)
	}
}

func TestRecordEncodingRejectsOversize(t *testing.T) {
	tw := sampleTweet(1)
	tw.Text = string(make([]byte, maxTextLen+1))
	r := TweetRecord(&tw, nil)
	if _, err := appendRecord(nil, &r); err == nil {
		t.Fatal("oversized tweet text encoded without error")
	}
}

func TestWALStatsAndLastSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if b, r := s.WALStats(); b != 0 || r != 0 {
		t.Errorf("fresh store WALStats = %d/%d, want 0/0", b, r)
	}
	if seq, _ := s.LastSnapshot(); seq != 0 {
		t.Errorf("fresh store LastSnapshot seq = %d, want 0", seq)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	commitSample(t, s)
	if err := s.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	b, r := s.WALStats()
	if r != int64(len(sampleRecords())) {
		t.Errorf("WALStats records = %d, want %d", r, len(sampleRecords()))
	}
	if b <= walHeaderSize {
		t.Errorf("WALStats bytes = %d, want > header", b)
	}
	seq, at := s.LastSnapshot()
	if seq != 1 || at.IsZero() {
		t.Errorf("LastSnapshot = %d/%v, want 1/non-zero", seq, at)
	}
}
