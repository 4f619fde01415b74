package microlink

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"microlink/internal/checksum"
	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/reach"
	"microlink/internal/store"
	"microlink/internal/synth"
	"microlink/internal/tweets"
)

// persistWorldParams is shared by the persistence tests and the crash
// child, which re-exec's this binary and must regenerate the identical
// world.
var persistWorldParams = WorldParams{Seed: 5, Users: 400, Topics: 6, EntitiesPerTopic: 10, Days: 20}

func persistWorld() *World { return Generate(persistWorldParams) }

// topKDump serialises a deterministic probe of the linker — every
// ambiguous surface for a spread of users — as JSON. Two systems serving
// identical answers produce byte-identical dumps.
func topKDump(t *testing.T, sys *System, w *World) []byte {
	t.Helper()
	now := w.Horizon() + 7200
	surfaces := ambiguousStreamSurfaces(w)
	sort.Strings(surfaces) // EachSurface iterates a map; pin the probe set
	if len(surfaces) > 8 {
		surfaces = surfaces[:8]
	}
	type probe struct {
		User    UserID
		Surface string
		TopK    []Scored
	}
	var probes []probe
	for u := 0; u < w.Graph.NumNodes(); u += 37 {
		for _, sf := range surfaces {
			probes = append(probes, probe{
				User:    UserID(u),
				Surface: sf,
				TopK:    sys.Linker.TopK(UserID(u), now, sf, 3),
			})
		}
	}
	b, err := json.Marshal(probes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drainTo submits events [lo, hi) of stream into pipe, blocking on a
// full queue.
func drainTo(t *testing.T, pipe *IngestPipeline, stream []synth.StreamEvent, lo, hi int) {
	t.Helper()
	ctx := context.Background()
	for _, ev := range stream[lo:hi] {
		var e IngestEvent
		if ev.Tweet != nil {
			e = TweetEvent(ev.Tweet, nil)
		} else {
			e = FollowEvent(ev.U, ev.V)
		}
		if err := pipe.Submit(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
}

// waitApplied blocks until the applier has consumed n tweet and follow
// events: Submit returns once an event is queued, not once it is applied.
func waitApplied(t *testing.T, pipe *IngestPipeline, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := pipe.Stats()
		if st.AppliedTweets+st.AppliedFollows >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("applier consumed %d of %d events", st.AppliedTweets+st.AppliedFollows, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotOpenRoundTrip is the warm-restart happy path: snapshot a
// streaming system mid-firehose, keep ingesting (those events tee into
// the WAL), shut down cleanly, Open the directory, and require the
// recovered system to serve byte-identical answers.
func TestSnapshotOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	opts := Options{Reach: ReachStreaming, TruthComplement: true}
	sys := Build(w, opts)
	pipe, err := sys.StartIngest(IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	stream := synth.GenerateStream(w, synth.StreamParams{Seed: 9, Events: 400, FollowFraction: 0.3})

	drainTo(t, pipe, stream, 0, 200)
	info, err := sys.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Dir != dir {
		t.Fatalf("snapshot info = %+v", info)
	}
	drainTo(t, pipe, stream, 200, 400)
	if err := pipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sys.Persist()
	if !st.Enabled || st.SnapshotSeq != 1 || st.WALRecords == 0 {
		t.Fatalf("persist status = %+v", st)
	}
	if stats := pipe.Stats(); stats.JournalFailures != 0 {
		t.Fatalf("journal failures: %d", stats.JournalFailures)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	sys2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 1 {
		t.Fatalf("restored seq %d, want 1", rep.Seq)
	}
	if rep.Tweets == 0 || rep.Follows == 0 {
		t.Fatalf("replay touched no events: %+v", rep)
	}
	if rep.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if rep.WALRecords != rep.Tweets+rep.Follows+rep.Feedback {
		t.Fatalf("record accounting: %+v", rep)
	}
	// Both overlapped load legs are timed, and each lies inside the load.
	if rep.World <= 0 || rep.Reach <= 0 || rep.World > rep.Load || rep.Reach > rep.Load {
		t.Fatalf("load legs: world %v, reach %v, load %v", rep.World, rep.Reach, rep.Load)
	}
	if _, ok := unwrapReach(sys2.Reach).(*reach.Streaming); !ok {
		t.Fatalf("restored substrate %T, want *reach.Streaming", unwrapReach(sys2.Reach))
	}
	if sys2.Live.Len() != sys.Live.Len() {
		t.Fatalf("live corpus: restored %d, original %d", sys2.Live.Len(), sys.Live.Len())
	}
	if sys2.CKB.TotalCount() != sys.CKB.TotalCount() {
		t.Fatalf("ckb postings: restored %d, original %d", sys2.CKB.TotalCount(), sys.CKB.TotalCount())
	}

	// Align the frozen arenas with the live graphs on both sides, then
	// require byte-identical rankings.
	pipe.ForceRebuild()
	if err := sys2.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	if got, want := topKDump(t, sys2, w), topKDump(t, sys, w); !bytes.Equal(got, want) {
		t.Fatal("restored system serves different answers")
	}
	if err := sys2.ClosePersist(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenedRebuildMatchesColdBuild pins what a reopened streaming
// system is: base graph + arena + an edge tail like any other, so N
// follows → Snapshot → Open → M more follows → RebuildReach must freeze
// the byte-identical arena a cold 2-hop build over base ∪ N ∪ M
// produces, and serve the same top-k as a system that took the same
// events without ever restarting. Snapshot itself builds nothing, so the
// two subtests place the re-freeze explicitly: at the snapshot point on
// both sides, or nowhere before the end, with the snapshot taken stale
// and its pending edges carried across the restart.
func TestReopenedRebuildMatchesColdBuild(t *testing.T) {
	t.Run("refreeze_at_snapshot", func(t *testing.T) { testReopenedRebuild(t, true) })
	t.Run("stale_snapshot", func(t *testing.T) { testReopenedRebuild(t, false) })
}

func testReopenedRebuild(t *testing.T, refreeze bool) {
	dir := t.TempDir()
	w := persistWorld()
	opts := Options{Reach: ReachStreaming, TruthComplement: true}
	cfg := IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1}
	stream := synth.GenerateStream(w, synth.StreamParams{Seed: 12, Events: 400, FollowFraction: 0.4})
	const n = 220 // events before the snapshot

	never := Build(w, opts)
	neverPipe, err := never.StartIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both systems serve the same arena at every point of the stream: with
	// refreeze, the tweets after n are linked against the arena of the
	// first n events; without, against the cold-built one throughout.
	drainTo(t, neverPipe, stream, 0, n)
	waitApplied(t, neverPipe, n)
	if refreeze {
		neverPipe.ForceRebuild()
	}
	drainTo(t, neverPipe, stream, n, len(stream))
	if err := neverPipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	neverPipe.ForceRebuild()

	sys := Build(w, opts)
	pipe, err := sys.StartIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drainTo(t, pipe, stream, 0, n)
	waitApplied(t, pipe, n)
	if refreeze {
		pipe.ForceRebuild()
	}
	stale := pipe.Stats().Staleness
	if (stale == 0) != refreeze {
		t.Fatalf("staleness %d at the snapshot (refreeze %v)", stale, refreeze)
	}
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	sys2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := unwrapReach(sys2.Reach).(*reach.Streaming)
	if got := st2.Staleness(); got != stale {
		t.Fatalf("reopened staleness %d, snapshot was taken at %d", got, stale)
	}
	pipe2, err := sys2.StartIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drainTo(t, pipe2, stream, n, len(stream))
	if err := pipe2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys2.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	if err := sys2.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	gb := graph.NewBuilder(w.Graph.NumNodes())
	for u := 0; u < w.Graph.NumNodes(); u++ {
		for _, v := range w.Graph.Out(UserID(u)) {
			gb.AddEdge(UserID(u), v)
		}
	}
	follows := 0
	for _, ev := range stream {
		if ev.Tweet == nil {
			gb.AddEdge(ev.U, ev.V)
			follows++
		}
	}
	if follows == 0 {
		t.Fatal("stream carries no follows")
	}
	cold := reach.BuildTwoHop(gb.Build(), reach.TwoHopOptions{
		MaxHops: reach.DefaultMaxHops, BatchSize: reach.DefaultTwoHopBatch,
	})
	var want, got bytes.Buffer
	if _, err := cold.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Frozen().WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("reopened-then-rebuilt arena (%d bytes) differs from a cold build (%d bytes)", got.Len(), want.Len())
	}
	if !bytes.Equal(topKDump(t, sys2, w), topKDump(t, never, w)) {
		t.Fatal("reopened system serves different answers from one that never restarted")
	}
}

// TestSnapshotKeepsInstalledArena pins the snapshot contract: Snapshot
// persists the arena that is serving, builds and installs nothing, and
// records the follows it does not reflect as pending edges, so the
// reopened arena is byte-identical to the live one and the reopened
// staleness equals the live staleness. A manifest without the pending
// entry is damaged: only version-1 manifests, refused outright, lacked it.
func TestSnapshotKeepsInstalledArena(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	pipe, err := sys.StartIngest(IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	stream := synth.GenerateStream(w, synth.StreamParams{Seed: 13, Events: 300, FollowFraction: 0.4})
	drainTo(t, pipe, stream, 0, len(stream))
	waitApplied(t, pipe, int64(len(stream)))

	live := unwrapReach(sys.Reach).(*reach.Streaming)
	frozen, swaps, stale := live.Frozen(), live.Swaps(), live.Staleness()
	if stale == 0 {
		t.Fatal("stream left the arena current; the test needs pending edges")
	}
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if live.Frozen() != frozen || live.Swaps() != swaps || live.Staleness() != stale {
		t.Fatalf("Snapshot moved the arena: swaps %d → %d, staleness %d → %d, same arena %v",
			swaps, live.Swaps(), stale, live.Staleness(), live.Frozen() == frozen)
	}
	if err := pipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if _, err := frozen.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	reopen := func() *reach.Streaming {
		t.Helper()
		sys2, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WALRecords != 0 {
			t.Fatalf("reopen replayed %d records; every event preceded the snapshot", rep.WALRecords)
		}
		if err := sys2.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		return unwrapReach(sys2.Reach).(*reach.Streaming)
	}
	re := reopen()
	var got bytes.Buffer
	if _, err := re.Frozen().WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("reopened arena differs from the live one")
	}
	if re.Staleness() != stale {
		t.Fatalf("reopened staleness %d, live %d", re.Staleness(), stale)
	}

	path := filepath.Join(dir, "MANIFEST")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	delete(man["segments"].(map[string]any), "pending")
	if b, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, store.ErrManifest) {
		t.Fatalf("open without a pending entry: %v", err)
	}
}

// TestOpenRejectsPendingEdgeInGraph: a pending edge the arena's graph
// already holds cannot come from Snapshot, so a (checksum-valid) pending
// segment carrying one fails Open as a damaged segment.
func TestOpenRejectsPendingEdgeInGraph(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	u := UserID(0)
	for w.Graph.OutDegree(u) == 0 {
		u++
	}
	// A sealed segment: "MLSG" | version 2 | kind 4 | count | (u, v) | checksum.
	seg := append([]byte("MLSG"), 2, 0, 4)
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(u))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(w.Graph.Out(u)[0]))
	seg = append(seg, payload...)
	seg = binary.LittleEndian.AppendUint64(seg, checksum.Of(payload))
	if err := os.WriteFile(filepath.Join(dir, "seg-000001-pending.bin"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, store.ErrSegment) || !strings.Contains(err.Error(), "already in the graph") {
		t.Fatalf("open with a pending edge already in the graph: %v, want the pending-edge ErrSegment", err)
	}
}

// TestFollowUnknownUser: a follow naming an endpoint outside the follow
// graph is refused by the write path, naming the IDs — not a panic later
// in a rebuild — and a WAL follow record carrying one fails replay as
// corruption.
func TestFollowUnknownUser(t *testing.T) {
	w := persistWorld()
	n := UserID(w.Graph.NumNodes())
	sys := Build(w, Options{Reach: ReachStreaming, MaxHops: 2, TruthComplement: true})
	pipe, err := sys.StartIngest(IngestConfig{RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := pipe.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	for _, e := range [][2]UserID{{-1, 0}, {0, n}, {n + 7, -3}} {
		_, err := pipe.Apply(FollowEvent(e[0], e[1]))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d → %d", e[0], e[1])) {
			t.Fatalf("follow %d → %d = %v, want a rejection naming both", e[0], e[1], err)
		}
	}
	if _, err := pipe.Apply(FollowEvent(0, n-1)); err != nil {
		t.Fatalf("valid follow: %v", err)
	}
	if err := sys.RebuildReach(); err != nil {
		t.Fatal(err)
	}

	rec := store.FollowRecord(n+7, 3)
	err = sys.replayer(&RestartReport{})(&rec)
	if !errors.Is(err, store.ErrWALCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("%d → 3", n+7)) {
		t.Fatalf("replayed bad follow = %v, want ErrWALCorrupt naming the IDs", err)
	}
}

// applyFollows applies the follow edges u → (u*37+11) mod n, u < count,
// through a pipeline started on sys with no rebuild threshold, and closes
// the pipeline when the test ends.
func applyFollows(t *testing.T, sys *System, count int) {
	t.Helper()
	pipe, err := sys.StartIngest(IngestConfig{RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := pipe.Close(context.Background()); err != nil {
			t.Error(err)
		}
	})
	n := UserID(sys.World.Graph.NumNodes())
	for u := UserID(0); u < UserID(count); u++ {
		if _, err := pipe.Apply(FollowEvent(u, (u*37+11)%n)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRejectsUnlinkedTweetRecord: the applier journals every tweet
// with the links it fed back, so a WAL tweet record with nil links is
// damage. Replay refuses it rather than skipping its feedback or
// re-running the linker.
func TestOpenRejectsUnlinkedTweetRecord(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	tw := w.Store.All()[0]
	if err := st.Append([]store.Record{store.TweetRecord(&tw, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, store.ErrWALCorrupt) {
		t.Fatalf("open with an unlinked tweet record: %v, want ErrWALCorrupt", err)
	}
}

// TestRebuildReachPublishesArena: RebuildReach on a system without a
// pipeline runs the ingest rebuild, gauges included, so
// microlink_reach_twohop_labels describes the arena that serves. The
// follows arrive the way such a system gets them: replayed from a WAL.
func TestRebuildReachPublishesArena(t *testing.T) {
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, MaxHops: 2, TruthComplement: true})
	labels := func() (gauge, arena float64) {
		out, in := unwrapReach(sys.Reach).(*reach.Streaming).Frozen().LabelCounts()
		return sys.Metrics.Gauge("microlink_reach_twohop_labels", "").Value(), float64(out + in)
	}
	_, before := labels()
	n := UserID(w.Graph.NumNodes())
	replay := sys.replayer(&RestartReport{})
	for u := UserID(0); u < 60; u++ {
		rec := FollowEvent(u, (u*37+11)%n)
		if err := replay(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	gauge, arena := labels()
	if arena == before {
		t.Fatalf("60 follows left the arena at %v labels; the test needs a change to observe", arena)
	}
	if gauge != arena {
		t.Fatalf("microlink_reach_twohop_labels = %v after RebuildReach, installed arena has %v", gauge, arena)
	}
}

// TestSnapshotOpenClosure: the transitive closure is never persisted.
// Snapshot refuses a closure system with ErrNotStreaming before it
// touches the directory, so the system stays unbound and Open finds no
// snapshot there. (A directory whose manifest names the closure is
// refused by TestOpenManifestDamage.)
func TestSnapshotOpenClosure(t *testing.T) {
	dir := t.TempDir()
	sys := Build(persistWorld(), Options{Reach: ReachClosure, TruthComplement: true})
	if _, err := sys.Snapshot(dir); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("closure snapshot: %v, want ErrNotStreaming", err)
	}
	if st := sys.Persist(); st.Enabled {
		t.Fatalf("refused snapshot bound the system: %+v", st)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("open after a refused snapshot: %v, want ErrNoSnapshot", err)
	}
}

// TestSnapshotErrors covers the API edges: snapshotting with no
// directory bound, rebinding to a different directory, and a
// PrebuiltReach that is not the streaming substrate.
func TestSnapshotErrors(t *testing.T) {
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	if _, err := sys.SnapshotNow(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("SnapshotNow unbound: %v", err)
	}
	if st := sys.Persist(); st.Enabled {
		t.Fatal("unbound system reports persistence enabled")
	}
	dir := t.TempDir()
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(t.TempDir()); err == nil {
		t.Fatal("rebinding to a second directory succeeded")
	}
	if _, err := sys.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow bound: %v", err)
	}
	if st := sys.Persist(); !st.Enabled || st.SnapshotSeq != 2 {
		t.Fatalf("persist status = %+v", st)
	}

	naive := Build(w, Options{PrebuiltReach: reach.NewNaive(w.Graph, reach.DefaultMaxHops), TruthComplement: true})
	if _, err := naive.Snapshot(t.TempDir()); !errors.Is(err, ErrNotStreaming) {
		t.Fatalf("naive snapshot: %v", err)
	}
	if _, _, err := Open(t.TempDir(), Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("open empty dir: %v", err)
	}
}

// snapshotDir commits snaps snapshots of the shared world, with no
// rebuild between them, and returns the directory and the last manifest,
// for the corruption matrix.
func snapshotDir(t *testing.T, snaps int) (string, *store.Manifest) {
	t.Helper()
	dir := t.TempDir()
	sys := Build(persistWorld(), Options{Reach: ReachStreaming, TruthComplement: true})
	for i := 0; i < snaps; i++ {
		if _, err := sys.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	return dir, readManifestFile(t, dir)
}

// readManifestFile decodes dir's committed MANIFEST.
func readManifestFile(t *testing.T, dir string) *store.Manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man store.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	return &man
}

// snapshotArenaAt snapshots sys into dir ("" for the bound one) and
// requires the commit to be generation seq and its manifest to name the
// graph and reach files of generation arena, the only such files left in
// the directory.
func snapshotArenaAt(t *testing.T, sys *System, dir string, seq, arena uint64) {
	t.Helper()
	info, err := sys.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{fmt.Sprintf("seg-%06d-graph.bin", arena), fmt.Sprintf("seg-%06d-reach.bin", arena)}
	var files []string
	for _, seg := range []string{"graph", "reach"} {
		names, err := filepath.Glob(filepath.Join(info.Dir, "seg-*-"+seg+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			files = append(files, filepath.Base(name))
		}
	}
	man := readManifestFile(t, info.Dir)
	if info.Seq != seq || man.Seq != seq || man.Segments["graph"] != want[0] || man.Segments["reach"] != want[1] || !slices.Equal(files, want) {
		t.Fatalf("commit %d names graph %q and reach %q, directory holds %v; want commit %d naming %v and nothing else",
			man.Seq, man.Segments["graph"], man.Segments["reach"], files, seq, want)
	}
}

// TestSnapshotCarriesArenaForward: a snapshot with no rebuild since the
// last one writes no second arena or graph file, and names the first
// ones; the pending edges applied between them are written, and the
// directory reopens serving the same top-k with the same staleness.
func TestSnapshotCarriesArenaForward(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	snapshotArenaAt(t, sys, dir, 1, 1)
	applyFollows(t, sys, 20)
	snapshotArenaAt(t, sys, dir, 2, 1)
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	sys2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unwrapReach(sys2.Reach).(*reach.Streaming).Staleness(), unwrapReach(sys.Reach).(*reach.Streaming).Staleness(); got != want || want == 0 {
		t.Fatalf("reopened staleness %d, live %d (want equal and nonzero)", got, want)
	}
	if !bytes.Equal(topKDump(t, sys2, w), topKDump(t, sys, w)) {
		t.Fatal("reopened system serves different top-k")
	}
}

// TestSnapshotAfterRebuildWritesArena: RebuildReach between two
// snapshots installs a new arena, so the second writes a new graph and
// reach pair and prune removes the old pair; a third carries the new one.
func TestSnapshotAfterRebuildWritesArena(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	snapshotArenaAt(t, sys, dir, 1, 1)
	applyFollows(t, sys, 20)
	if err := sys.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	snapshotArenaAt(t, sys, dir, 2, 2)
	snapshotArenaAt(t, sys, dir, 3, 2)
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	sys2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(topKDump(t, sys2, w), topKDump(t, sys, w)) {
		t.Fatal("reopened system serves different top-k")
	}
}

// TestOpenThenSnapshotCarriesArena: a System that Open returned serves
// the arena Open read, so its first snapshot carries that file forward.
func TestOpenThenSnapshotCarriesArena(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	snapshotArenaAt(t, sys, dir, 1, 1)
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	sys2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snapshotArenaAt(t, sys2, "", 2, 1)
	if err := sys2.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	sys3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(topKDump(t, sys3, w), topKDump(t, sys, w)) {
		t.Fatal("reopened system serves different top-k")
	}
}

// TestOpenReadsPersistedWorld proves Open runs no generator. The world
// snapshotted is not Generate(w.Params): it has one extra KB surface and
// one corpus tweet fewer, and the manifest's world parameters are then
// tampered. The reopened World must be the snapshotted one, field for
// field, and serve the same top-k.
func TestOpenReadsPersistedWorld(t *testing.T) {
	gen := persistWorld()
	kbb := kb.NewBuilder()
	for e := 0; e < gen.KB.NumEntities(); e++ {
		kbb.AddEntity(*gen.KB.Entity(EntityID(e)))
		for _, to := range gen.KB.Outlinks(EntityID(e)) {
			kbb.AddLink(EntityID(e), to)
		}
	}
	gen.KB.EachSurface(func(form string, cands []EntityID) {
		for _, e := range cands {
			kbb.AddSurface(form, e)
		}
	})
	const extra = "persistedonly"
	kbb.AddSurface(extra, 0)
	w := *gen
	w.KB = kbb.Build()
	corpus := slices.Clone(gen.Store.All())
	w.Store = tweets.NewStore(slices.Delete(corpus, 10, 11))

	dir := t.TempDir()
	sys := Build(&w, Options{Reach: ReachStreaming, TruthComplement: true})
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man store.Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	man.World.Seed++
	man.World.Users += 50
	if b, err = json.Marshal(&man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sys2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys2.World, &w) {
		t.Fatal("reopened world differs from the snapshotted one")
	}
	if sys2.World.Store.Len() != gen.Store.Len()-1 || len(sys2.World.KB.Candidates(extra)) != 1 {
		t.Fatalf("reopened world has %d tweets and surface %q → %v; the snapshotted one has %d and [0]",
			sys2.World.Store.Len(), extra, sys2.World.KB.Candidates(extra), gen.Store.Len()-1)
	}
	if got, want := topKDump(t, sys2, &w), topKDump(t, sys, &w); !bytes.Equal(got, want) {
		t.Fatal("reopened system serves different top-k")
	}
}

// TestOpenKeepsWALCountFlat reopens one directory ten times without
// appending anything: each restart must reuse the header-only WAL file
// the last one left, not add another for every later Replay to visit.
func TestOpenKeepsWALCountFlat(t *testing.T) {
	dir := t.TempDir()
	sys := Build(persistWorld(), Options{Reach: ReachStreaming, TruthComplement: true})
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sys, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.WALFiles != 1 || len(wals) != 1 {
			t.Fatalf("restart %d: replay visited %d WAL files, directory holds %v; want one", i, rep.WALFiles, wals)
		}
	}
}

// TestOpenCorruptSegment flips one payload byte in each segment kind and
// requires Open to surface the store's typed errors. carried_reach
// flips it in the arena file a generation-3 manifest carries from the
// first commit.
func TestOpenCorruptSegment(t *testing.T) {
	for _, tc := range []struct {
		name, seg string
		snaps     int
	}{
		{"world", "world", 1},
		{"graph", "graph", 1},
		{"ckb", "ckb", 1},
		{"tweets", "tweets", 1},
		{"reach", "reach", 1},
		{"carried_reach", "reach", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, man := snapshotDir(t, tc.snaps)
			if want := "seg-000001-" + tc.seg + ".bin"; man.Seq != uint64(tc.snaps) || man.Segments[tc.seg] != want {
				t.Fatalf("commit %d names %s segment %q, want commit %d naming %q", man.Seq, tc.seg, man.Segments[tc.seg], tc.snaps, want)
			}
			path := filepath.Join(dir, man.Segments[tc.seg])
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xFF
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = Open(dir, Options{})
			if err == nil {
				t.Fatal("open succeeded on a corrupt segment")
			}
			// The reach segment uses the reach package's own framing and
			// surfaces its typed error; the rest are store segments.
			if tc.seg == "reach" {
				if !errors.Is(err, reach.ErrFormat) && !errors.Is(err, reach.ErrGraphMismatch) {
					t.Fatalf("reach corruption: %v", err)
				}
			} else if !errors.Is(err, store.ErrSegment) {
				t.Fatalf("%s corruption: %v", tc.seg, err)
			}
		})
	}
}

// TestOpenRejectsVersion3Arena: a data directory whose reach segment is
// a version-3 image (the padded per-label record the label columns
// replaced) fails Open with reach.ErrFormat naming the version, and Open
// leaves every file of the directory as it found it; the directory is
// re-snapshotted from a cold Build.
func TestOpenRejectsVersion3Arena(t *testing.T) {
	dir, man := snapshotDir(t, 1)
	path := filepath.Join(dir, man.Segments["reach"])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != "MLRI" || binary.LittleEndian.Uint16(b[4:]) != 4 {
		t.Fatalf("reach segment header %q version %d, want MLRI version 4", b[:4], binary.LittleEndian.Uint16(b[4:]))
	}
	binary.LittleEndian.PutUint16(b[4:], 3)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, reach.ErrFormat) || !strings.Contains(err.Error(), "version 3, want 4") {
		t.Fatalf("open with a version-3 arena: %v, want a reach.ErrFormat naming version 3", err)
	}
	if after := dirContents(t, dir); !maps.Equal(before, after) {
		t.Fatalf("a refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// dirContents maps each file name in dir to its contents.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestOpenManifestDamage requires a damaged manifest to surface
// ErrManifest through the facade.
func TestOpenManifestDamage(t *testing.T) {
	dir, man := snapshotDir(t, 1)
	path := filepath.Join(dir, "MANIFEST")
	open := func(m *store.Manifest) error {
		t.Helper()
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, Options{})
		return err
	}
	// An entry may name an older generation's file (a carried segment),
	// but only a segment file of its own kind and of a generation no
	// newer than the manifest's.
	for _, bad := range []string{"../x", "seg-000001-ckb.bin", "seg-000002-reach.bin"} {
		damaged := *man
		damaged.Segments = maps.Clone(man.Segments)
		damaged.Segments["reach"] = bad
		if err := open(&damaged); !errors.Is(err, store.ErrManifest) {
			t.Fatalf("open with reach entry %q: %v", bad, err)
		}
	}
	// A data directory of a retired kind, the static 2-hop cover or the
	// transitive closure, is refused; it is re-snapshotted from a cold
	// Build.
	for _, retired := range []string{"twohop", "closure"} {
		man.Reach = retired
		if err := open(man); !errors.Is(err, store.ErrManifest) {
			t.Fatalf("open with reach kind %s: %v", retired, err)
		}
	}
	// A version-1 directory regenerated its world from the manifest's
	// parameters; it is refused and re-snapshotted from a cold Build.
	man.Reach = store.ReachStreaming
	man.Version = 1
	if err := open(man); !errors.Is(err, store.ErrManifest) {
		t.Fatalf("open version-1 manifest: %v", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, store.ErrManifest) {
		t.Fatalf("open with damaged manifest: %v", err)
	}
}

// TestOpenTornWAL truncates the final WAL record mid-frame — the kill -9
// signature — and requires Open to succeed, report the torn tail, and
// keep every fully-written record.
func TestOpenTornWAL(t *testing.T) {
	dir := t.TempDir()
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	pipe, err := sys.StartIngest(IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	stream := synth.GenerateStream(w, synth.StreamParams{Seed: 10, Events: 120, FollowFraction: 0.3})
	drainTo(t, pipe, stream, 0, len(stream))
	if err := pipe.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL files: %v", err)
	}
	last := wals[len(wals)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Fatal("truncated WAL not reported as torn")
	}
	if rep.WALRecords == 0 {
		t.Fatal("torn tail dropped every record")
	}
}

// crashChildEnv points the re-exec'd crash child at its data directory.
const crashChildEnv = "MICROLINK_CRASH_DIR"

// crashAck is one write the crash child applied synchronously and
// acknowledged on stdout: a fed-back tweet or a confirm, with the links
// it fed back.
type crashAck struct {
	Kind  string     // "tweet" or "confirm"
	Tweet int64      // tweet ID
	Text  string     // the tweet's text ("" for a confirm)
	Links []EntityID // links fed back, parallel to the tweet's mentions
}

// TestCrashChild is the helper process of TestCrashRecovery: it
// snapshots an empty streaming system, then ingests a firehose forever,
// printing applied-event progress until the parent SIGKILLs it. Every
// 25th event goes through the synchronous write path instead of the
// queue — a stream tweet as a fed-back tweet, and beside it a confirm —
// and is acknowledged on stdout once Apply has returned.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashRecovery")
	}
	w := persistWorld()
	sys := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	pipe, err := sys.StartIngest(IngestConfig{BlockOnFull: true, RebuildAfterEdges: -1})
	if err != nil {
		fmt.Printf("child-error: %v\n", err)
		return
	}
	if _, err := sys.Snapshot(dir); err != nil {
		fmt.Printf("child-error: %v\n", err)
		return
	}
	fmt.Println("snapshotted")
	stream := synth.GenerateStream(w, synth.StreamParams{Seed: 11, Events: 20000, FollowFraction: 0.3})
	ctx := context.Background()
	ack := func(kind string, ev IngestEvent) bool {
		rec, err := pipe.Apply(ev)
		if err != nil {
			fmt.Printf("child-error: %v\n", err)
			return false
		}
		b, err := json.Marshal(crashAck{Kind: kind, Tweet: rec.Tweet.ID, Text: rec.Tweet.Text, Links: rec.Links})
		if err != nil {
			fmt.Printf("child-error: %v\n", err)
			return false
		}
		fmt.Printf("ack %s\n", b)
		return true
	}
	for i, ev := range stream {
		if ev.Tweet != nil && i%25 == 12 {
			confirm := &Tweet{ID: 1<<45 + int64(i), User: ev.Tweet.User, Time: ev.Tweet.Time,
				Mentions: []Mention{{Truth: NoEntity}}}
			if !ack("tweet", TweetEvent(ev.Tweet, nil)) ||
				!ack("confirm", FeedbackEvent(confirm, []EntityID{EntityID(i % w.KB.NumEntities())})) {
				return
			}
			continue
		}
		var e IngestEvent
		if ev.Tweet != nil {
			e = TweetEvent(ev.Tweet, nil)
		} else {
			e = FollowEvent(ev.U, ev.V)
		}
		if err := pipe.Submit(ctx, e); err != nil {
			fmt.Printf("child-error: %v\n", err)
			return
		}
		if i%50 == 49 {
			s := pipe.Stats()
			fmt.Printf("applied %d\n", s.AppliedTweets+s.AppliedFollows)
		}
	}
	// Stream exhausted before the parent killed us; idle so SIGKILL is
	// still the only way out.
	select {}
}

// TestCrashRecovery is the acceptance story: SIGKILL a child mid-
// firehose, Open its data directory, and require answers byte-identical
// to a reference system built fresh and fed the surviving WAL records
// directly. The WAL is the acknowledgement boundary — whatever it holds
// after the kill is exactly what the recovered system must serve — and
// every write the child acknowledged before the kill is in it: each
// acknowledged posting and fed-back tweet is in the recovered system.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()
	timer := time.AfterFunc(90*time.Second, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()

	var acks []crashAck
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "child-error:") {
			t.Fatalf("crash child failed: %s", line)
		}
		if js, ok := strings.CutPrefix(line, "ack "); ok {
			var a crashAck
			if err := json.Unmarshal([]byte(js), &a); err != nil {
				t.Fatalf("bad ack line %q: %v", line, err)
			}
			acks = append(acks, a)
		}
		if n, ok := strings.CutPrefix(line, "applied "); ok {
			applied, err := strconv.ParseInt(n, 10, 64)
			if err != nil {
				t.Fatalf("bad progress line %q", line)
			}
			if applied >= 400 {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, mid-ingest
		t.Fatal(err)
	}
	killed = true
	_ = cmd.Wait()

	sys2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rep.WALRecords == 0 {
		t.Fatal("kill landed before any WAL append; nothing recovered")
	}
	t.Logf("recovered seq %d: %d records (%d tweets, %d follows, %d feedback), torn=%v, world=%v reach=%v load=%v replay=%v; %d acknowledged writes",
		rep.Seq, rep.WALRecords, rep.Tweets, rep.Follows, rep.Feedback, rep.TornTail, rep.World, rep.Reach, rep.Load, rep.Replay, len(acks))
	if len(acks) == 0 {
		t.Fatal("the child acknowledged no synchronous write before the kill")
	}
	for _, a := range acks {
		for _, e := range a.Links {
			if e != NoEntity && !slices.ContainsFunc(sys2.CKB.Postings(e), func(p Posting) bool { return p.Tweet == a.Tweet }) {
				t.Fatalf("acknowledged %s %d → entity %d is missing after recovery", a.Kind, a.Tweet, e)
			}
		}
		if text, _ := sys2.Live.Text(a.Tweet); a.Kind == "tweet" && text != a.Text {
			t.Fatalf("acknowledged tweet %d recovered with text %q, want %q", a.Tweet, text, a.Text)
		}
	}

	// Reference: a fresh build of the same (pre-stream) state, fed the
	// surviving WAL records verbatim.
	w := persistWorld()
	ref := Build(w, Options{Reach: ReachStreaming, TruthComplement: true})
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var repRef RestartReport
	stats, err := st.Replay(ref.replayer(&repRef))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Records != rep.WALRecords {
		t.Fatalf("reference replayed %d records, recovery %d", stats.Records, rep.WALRecords)
	}

	if err := ref.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	if err := sys2.RebuildReach(); err != nil {
		t.Fatal(err)
	}
	if got, want := topKDump(t, sys2, w), topKDump(t, ref, w); !bytes.Equal(got, want) {
		t.Fatal("recovered system diverges from the WAL reference")
	}
}
