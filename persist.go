package microlink

import (
	"errors"
	"fmt"
	"io"
	"time"

	"microlink/internal/graph"
	"microlink/internal/ingest"
	"microlink/internal/kb"
	"microlink/internal/reach"
	"microlink/internal/store"
)

// This file is the unified persistence API (DESIGN.md §8): one data
// directory per system, holding a committed snapshot (immutable segment
// files) plus a checksummed write-ahead log the ingest applier tees
// into. System.Snapshot commits a new generation, writing the segments
// that changed and carrying the rest (the world, and the arena with its
// graph until a rebuild replaces it) forward. Open warm-restarts a whole
// System from the directory — read the world and the other segments,
// replay the WAL — without running the generator, rebuilding the 2-hop
// arena or re-running offline complementation.

// ErrNoStore reports a persistence call on a system with no data
// directory attached (bind one with Open or System.Snapshot).
var ErrNoStore = errors.New("microlink: no data directory attached (use Open or System.Snapshot)")

// ErrNoSnapshot re-exports the store's empty-directory error: Open on a
// directory without a committed MANIFEST.
var ErrNoSnapshot = store.ErrNoSnapshot

// SnapshotInfo summarises one committed snapshot.
type SnapshotInfo struct {
	Seq     uint64        // snapshot generation
	Dir     string        // data directory
	Elapsed time.Duration // capture + segment write + commit time
}

// RestartReport breaks a warm restart into its phases — the numbers
// linkd logs at boot. Load and replay are separate on
// purpose: the acceptance story is cold-start dominated by segment load,
// with replay proportional to the WAL suffix, and no arena rebuild.
// Segment load runs as two overlapped legs, World and Reach; the longer
// one bounds Load.
type RestartReport struct {
	Seq        uint64        // snapshot generation restored
	World      time.Duration // world leg: world, postings and live-tweet segments, complement restore
	Reach      time.Duration // arena leg: graph segment, arena read and validation, pending follows
	Load       time.Duration // both legs and wiring the stack over them
	Replay     time.Duration // WAL replay into the live stores
	WALFiles   int           // WAL files visited
	WALRecords int64         // records replayed
	WALBytes   int64         // record bytes replayed
	Tweets     int64         // replayed tweet records
	Follows    int64         // replayed follow records
	Feedback   int64         // replayed feedback records
	TornTail   bool          // the last WAL record was torn by a crash (truncated)
}

// Snapshot commits the system's serving state as it stands — the
// installed reachability arena, the follow graph that arena was built
// from, the follow edges applied since (pending), the complemented-KB
// postings and the live tweets — as the next snapshot generation in
// dir, and leaves the system bound to the directory: a running ingest
// pipeline's WAL tee is attached (or re-pointed) to it atomically with
// the capture.
//
// A commit writes only the segments that changed since the last one and
// carries the rest forward. The world never changes for the life of a
// System, so only the commit that binds the directory writes it. The
// arena and the graph it was built from change only when a rebuild
// installs a new arena, so a commit writes them only when the installed
// arena is not the one the directory already holds: the one the last
// commit wrote or, on a System that Open returned, the one Open read.
// Pending edges, postings and live tweets are written every time.
//
// Snapshot builds nothing. It persists the arena that is serving, stale
// or not, and records the gap as pending edges, so a reopened system
// serves the same answers and reports the same Staleness. A caller who
// wants a fresh arena in the snapshot calls RebuildReach first.
//
// With an ingest pipeline running, the whole capture happens inside the
// pipeline's apply barrier, so the segment/WAL split is exact for every
// kind of record: each one at or past the rotation point replays onto
// state that does not include it.
//
// Only the streaming substrate is persisted: any other returns
// ErrNotStreaming. dir may be empty when the system is already bound
// (SnapshotNow).
func (s *System) Snapshot(dir string) (SnapshotInfo, error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	start := time.Now()

	st := s.persist
	if st == nil && dir == "" {
		return SnapshotInfo{}, ErrNoStore
	}
	stream, ok := unwrapReach(s.Reach).(*reach.Streaming)
	if !ok {
		return SnapshotInfo{}, ErrNotStreaming
	}
	snap := store.Snapshot{MaxHops: stream.MaxHops()}
	switch {
	case st == nil:
		var err error
		st, err = store.Open(dir, store.Options{Fsync: s.fsync})
		if err != nil {
			return SnapshotInfo{}, err
		}
		st.Instrument(s.Metrics)
		snap.World = s.World
	case dir != "" && dir != st.Dir():
		return SnapshotInfo{}, fmt.Errorf("microlink: system already bound to data directory %s", st.Dir())
	}

	var th *reach.TwoHop
	capture := func() error {
		var g *graph.Graph
		th, g, snap.Pending = stream.Capture()
		// A published arena is immutable, so the same pointer is the same
		// bytes: the bound directory already holds it and its graph.
		if s.persist == nil || th != s.persisted {
			snap.Index, snap.Graph = th, g
		}
		snap.Postings = s.CKB.SnapshotPostings()
		snap.Tweets = s.Live.All()
		return st.Rotate()
	}
	var err error
	if pipe := s.Ingest(); pipe != nil {
		pipe.Barrier(func(setJournal func(ingest.Journal)) {
			if err = capture(); err == nil {
				setJournal(st)
			}
		})
	} else {
		err = capture()
	}
	if err != nil {
		return SnapshotInfo{}, err
	}

	seq, err := st.Commit(snap)
	if err != nil {
		return SnapshotInfo{}, err
	}
	s.persist, s.persisted = st, th
	return SnapshotInfo{Seq: seq, Dir: st.Dir(), Elapsed: time.Since(start)}, nil
}

// SnapshotNow commits a snapshot to the directory the system is already
// bound to — the POST /v1/admin/snapshot path.
func (s *System) SnapshotNow() (SnapshotInfo, error) { return s.Snapshot("") }

// PersistStatus reports the persistence layer's state for the admin
// status endpoint. Enabled is false when no data directory is bound.
type PersistStatus struct {
	Enabled          bool   `json:"enabled"`
	Dir              string `json:"dir,omitempty"`
	SnapshotSeq      uint64 `json:"snapshot_seq,omitempty"`
	LastSnapshotUnix int64  `json:"last_snapshot_unix,omitempty"`
	WALBytes         int64  `json:"wal_bytes"`
	WALRecords       int64  `json:"wal_records"`
}

// Persist reports the current persistence binding.
func (s *System) Persist() PersistStatus {
	s.persistMu.Lock()
	st := s.persist
	s.persistMu.Unlock()
	if st == nil {
		return PersistStatus{}
	}
	bytes, records := st.WALStats()
	seq, at := st.LastSnapshot()
	ps := PersistStatus{
		Enabled:     true,
		Dir:         st.Dir(),
		SnapshotSeq: seq,
		WALBytes:    bytes,
		WALRecords:  records,
	}
	if !at.IsZero() {
		ps.LastSnapshotUnix = at.Unix()
	} else if man := st.Manifest(); man != nil {
		ps.LastSnapshotUnix = man.CreatedUnix
	}
	return ps
}

// ClosePersist flushes and closes the write-ahead log. Call it on
// shutdown after stopping the ingest pipeline; appends after close
// surface as journal failures, not crashes.
func (s *System) ClosePersist() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.persist == nil {
		return nil
	}
	return s.persist.Close()
}

// RebuildReach synchronously re-freezes the 2-hop arena from the live
// graph, installs it and publishes its build gauges — the ingest rebuild
// manager's own rebuild (ingest.Deps.Rebuild), run through the pipeline
// when one is attached, directly otherwise (and for deterministic
// tests). The cost is one 2-hop build, on a cold-built and a
// warm-restored system alike.
func (s *System) RebuildReach() error {
	idx, ok := unwrapReach(s.Reach).(*reach.Streaming)
	if !ok {
		return ErrNotStreaming
	}
	if pipe := s.Ingest(); pipe != nil {
		pipe.ForceRebuild()
		return nil
	}
	ingest.Deps{Linker: s.Linker, Stream: idx, Metrics: s.Metrics}.Rebuild()
	return nil
}

// Open warm-restarts a System from a data directory written by
// System.Snapshot: the world segment loads the dataset the snapshotted
// system served, the other segments bulk-load the state built on it (the
// arena's graph, pending follows, postings, live tweets, frozen arena),
// and the WAL suffix replays on top through the ingest applier (see
// replayer). Open runs no generator: the manifest's world parameters are
// provenance only, so a changed generator leaves every existing
// directory meaning what it meant. The returned System always serves the
// streaming substrate, whatever opts.Reach says, with the manifest's hop
// bound in place of opts.MaxHops; everything else (linker weights, batch
// options, candidate generation) applies as in Build.
//
// Cold-start cost is segment load plus replay: the offline
// complementation phase is skipped (postings come from the segment) and
// no reachability index is built. The restored substrate is the loaded
// arena over the graph it was built from, with the pending edges
// re-inserted on top — the reopened system serves the arena the
// snapshotted one served and reports the same Staleness; the next
// rebuild (RebuildReach, or an ingest pipeline's threshold) catches up.
// A torn final WAL record, or a newest WAL file torn inside its header
// (kill -9 signatures), is repaired and reported in the RestartReport,
// never an error. A directory written
// before the world segment existed (manifest version 1), or whose
// manifest names a retired reach kind ("twohop", "closure"), is refused
// with store.ErrManifest; re-snapshot it from a cold Build.
func Open(dir string, opts Options) (*System, *RestartReport, error) {
	st, err := store.Open(dir, store.Options{Fsync: opts.Fsync})
	if err != nil {
		return nil, nil, err
	}
	man := st.Manifest()
	if man == nil {
		err := fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
		if cerr := st.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, nil, err
	}
	rep := &RestartReport{Seq: man.Seq}

	// Two legs overlap. The world leg — the world segment, then the
	// postings, their complement restore and the live tweets, which need
	// only the world — runs on its own goroutine beside the arena leg on
	// this one. The buffered channel lets it finish even when Open fails
	// first.
	loadStart := time.Now()
	worldc := make(chan worldLeg, 1)
	go func() {
		leg := loadWorldLeg(st)
		leg.took = time.Since(loadStart)
		worldc <- leg
	}()

	g, err := st.LoadGraph()
	if err != nil {
		return nil, nil, err
	}
	rc, err := st.OpenReach()
	if err != nil {
		return nil, nil, err
	}
	stream, err := openStreaming(st, rc, g, man.MaxHops)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Reach = time.Since(loadStart)
	wl := <-worldc
	if wl.err != nil {
		return nil, nil, wl.err
	}
	rep.World = wl.took
	if g.NumNodes() != wl.w.Graph.NumNodes() {
		return nil, nil, fmt.Errorf("%w: graph segment has %d nodes, world segment %d",
			store.ErrSegment, g.NumNodes(), wl.w.Graph.NumNodes())
	}
	opts.MaxHops = man.MaxHops
	opts.PrebuiltReach = stream

	sys := build(wl.w, opts, wl.ckb)
	st.Instrument(sys.Metrics)
	for i := range wl.live {
		sys.Live.Append(wl.live[i])
	}
	rep.Load = time.Since(loadStart)

	t := time.Now()
	stats, err := st.Replay(sys.replayer(rep))
	if err != nil {
		return nil, nil, err
	}
	rep.Replay = time.Since(t)
	rep.WALFiles = stats.Files
	rep.WALRecords = stats.Records
	rep.WALBytes = stats.Bytes
	rep.TornTail = stats.TornTail

	if err := st.Resume(); err != nil {
		return nil, nil, err
	}
	sys.persistMu.Lock()
	sys.persist, sys.persisted = st, stream.Frozen()
	sys.persistMu.Unlock()
	return sys, rep, nil
}

// worldLeg is what Open's world leg loads: the world, the complemented
// KB restored over it, the live tweets, and how long that took.
type worldLeg struct {
	w    *World
	ckb  *kb.Complemented
	live []Tweet
	took time.Duration
	err  error
}

// loadWorldLeg reads the world segment, then the segments that need only
// the world: the postings, complemented over the world's KB, and the live
// tweets.
func loadWorldLeg(st *store.Store) (leg worldLeg) {
	if leg.w, leg.err = st.LoadWorld(); leg.err != nil {
		return leg
	}
	postings, err := st.LoadPostings()
	if err != nil {
		leg.err = err
		return leg
	}
	if leg.ckb, leg.err = kb.ComplementRestore(leg.w.KB, postings); leg.err != nil {
		return leg
	}
	leg.live, leg.err = st.LoadTweets()
	return leg
}

// openStreaming restores a streaming substrate: the arena read from rc
// over g, the graph it was built from, plus the snapshot's pending
// edges. Each pending edge must be new to g; one that is not is a
// damaged segment, not a no-op.
func openStreaming(st *store.Store, rc io.Reader, g *graph.Graph, maxHops int) (*reach.Streaming, error) {
	th, err := reach.ReadTwoHop(rc, g)
	if err != nil {
		return nil, err
	}
	pending, err := st.LoadPending()
	if err != nil {
		return nil, err
	}
	idx := reach.NewStreamingFromFrozen(g, th, reach.TwoHopOptions{MaxHops: maxHops})
	if n := idx.InsertEdges(pending); n != len(pending) {
		return nil, fmt.Errorf("%w: %d of %d pending edges are self-loops, out of range or already in the graph",
			store.ErrSegment, len(pending)-n, len(pending))
	}
	return idx, nil
}

// replayer returns the WAL replay callback of a streaming system (Open
// builds no other): each record goes through ingest's Deps.Apply, the
// pipeline's own applier, with linking off. A record Apply refuses (a
// tweet without links, a follow naming an unknown user) is corruption.
// Counts accumulate into rep.
func (s *System) replayer(rep *RestartReport) func(*store.Record) error {
	d := ingest.Deps{Linker: s.Linker, Stream: unwrapReach(s.Reach).(*reach.Streaming), Live: s.Live}
	var in, out [1]store.Record
	return func(r *store.Record) error {
		in[0] = *r
		_, t, err := d.Apply(in[:], false, out[:0])
		if err != nil {
			return fmt.Errorf("%w: %v", store.ErrWALCorrupt, err)
		}
		rep.Tweets += int64(t.Tweets)
		rep.Follows += int64(t.Follows)
		rep.Feedback += int64(t.Feedback)
		return nil
	}
}
