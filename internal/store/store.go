// Package store is the persistence layer: a versioned on-disk layout of
// immutable segment files plus an append-only, checksummed write-ahead
// log (WAL), giving the serving stack durable snapshots and warm
// restarts (ROADMAP item 3 — the audit-ledger discipline: append,
// checksum, replay).
//
// # Layout
//
// A data directory holds at most one committed snapshot and the WAL
// files that extend it:
//
//	MANIFEST                 JSON: version, seq, world params (provenance),
//	                         reach kind ("streaming"), hop bound, segment
//	                         names, first WAL seq
//	seg-<seq>-world.bin      the served dataset: base graph, KB, corpus,
//	                         events, topics (written once per binding)
//	seg-<seq>-graph.bin      the follow graph the arena was built from
//	                         (written once per arena)
//	seg-<seq>-pending.bin    follow edges applied since, not in the arena
//	seg-<seq>-ckb.bin        complemented-KB posting lists (Definition 5)
//	seg-<seq>-tweets.bin     live (streamed) tweet corpus
//	seg-<seq>-reach.bin      frozen 2-hop arena (reach MLRI format,
//	                         written once per arena)
//	wal-<seq>.log            mutations applied after the snapshot barrier
//
// Segments are written once and never modified; a snapshot becomes
// visible atomically when MANIFEST is renamed into place. One rule covers
// every segment: a commit writes the payloads that changed and names the
// previous manifest's file for each one that did not, so a manifest may
// name files of older generations than its own. The world never changes
// for the life of a binding and the arena with its graph only when a
// rebuild installs a new one, so those are the segments carried forward.
// Nothing is regenerated on open: the
// manifest's synth.Params record where the world came from, and a changed
// generator does not change what an existing directory means. A version-1
// manifest (from before the world segment), and one whose reach kind is
// not "streaming" (the retired "twohop" and "closure" kinds), is
// ErrManifest: such a directory is re-snapshotted from a cold Build.
//
// # Durability contract
//
// Append buffers records and flushes them to the OS on every call, so a
// killed process (SIGKILL, panic) loses at most the batch being written;
// Options.Fsync additionally syncs the file per append for power-loss
// durability. A torn final record is the expected crash signature and is
// truncated away on replay; a checksum mismatch anywhere earlier is
// corruption and surfaces as ErrWALCorrupt. Replayed records re-enter
// the live stores exactly as they were applied pre-crash: tweet records
// carry their resolved entity links, so replay never re-runs the linker.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/synth"
	"microlink/internal/tweets"
)

// Typed failure classes. Every decode path returns one of these (wrapped
// with detail) — corruption never panics.
var (
	// ErrNoSnapshot reports a data directory with no committed MANIFEST.
	ErrNoSnapshot = errors.New("store: no snapshot in data directory")
	// ErrManifest reports a malformed or incompatible MANIFEST.
	ErrManifest = errors.New("store: bad manifest")
	// ErrSegment reports a malformed or corrupt segment file (bad magic,
	// checksum mismatch, impossible counts).
	ErrSegment = errors.New("store: bad segment file")
	// ErrSegmentVersion reports a segment written by an incompatible
	// format version.
	ErrSegmentVersion = errors.New("store: segment version skew")
	// ErrWAL reports a WAL file with a bad header (magic or version).
	ErrWAL = errors.New("store: bad WAL file")
	// ErrWALCorrupt reports a WAL record that fails its checksum or frames
	// past the file — mid-file damage, as opposed to the benign torn tail
	// a crash leaves.
	ErrWALCorrupt = errors.New("store: WAL corruption")
	// ErrNoWAL reports an Append before Rotate opened a WAL file.
	ErrNoWAL = errors.New("store: WAL not started (call Rotate first)")
	// ErrNoCarry reports a Commit that leaves a payload nil (carries its
	// segment forward) to a directory with no committed manifest to carry
	// it from.
	ErrNoCarry = errors.New("store: nothing committed to carry a segment forward from")
)

// ReachStreaming is the one reach kind a manifest records: the
// streaming substrate's frozen 2-hop arena.
const ReachStreaming = "streaming"

// Options configures a Store.
type Options struct {
	// Fsync syncs the WAL file on every Append. Without it appends are
	// flushed to the OS per call — durable against process death but not
	// against power loss.
	Fsync bool
}

// Store manages one data directory: the committed snapshot (if any) and
// the open WAL file receiving the ingest tee. One Store owns its
// directory exclusively; the snapshot/replay protocol assumes a single
// process.
type Store struct {
	dir   string
	fsync bool

	mu      sync.Mutex // microlint:lock-order store
	man     *Manifest  // microlint:guarded-by mu — nil before the first commit
	wal     *walWriter // microlint:guarded-by mu — nil before Rotate
	walSeq  uint64     // microlint:guarded-by mu — seq of the open WAL file
	idle    uint64     // microlint:guarded-by mu — seq of a header-only WAL file Replay left, 0 when none
	lastMan time.Time  // microlint:guarded-by mu — wall time of the last commit
	met     metrics    // microlint:guarded-by mu
}

// Open attaches a Store to dir, creating the directory if needed and
// loading the committed manifest if one exists (Manifest returns nil
// otherwise — the caller decides whether that is ErrNoSnapshot or a
// fresh start).
func Open(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, fsync: o.Fsync, man: man}, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Manifest returns the committed manifest, or nil when the directory
// holds no snapshot yet. The returned value is shared and must be
// treated as read-only.
func (s *Store) Manifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// Instrument registers the microlink_store_* metric family on reg and
// seeds the gauges with current state. Call once, before concurrent use.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = newMetrics(reg)
	if s.wal != nil {
		s.met.walBytes.Set(float64(s.wal.bytes))
	}
}

// Rotate closes the current WAL file (if any) and opens a fresh one with
// the next sequence number. Callers invoke it inside the snapshot
// barrier: records appended afterwards extend the snapshot being
// written.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked()
}

// Resume opens the WAL for appends after Replay, once at warm open. It
// reopens the newest file when replay found it holding only its header,
// and rotates otherwise: post-restart appends never touch a file that
// holds records or whose torn tail replay truncated, and a restart that
// appends nothing leaves no new file behind.
func (s *Store) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idle == 0 || s.wal != nil {
		return s.rotateLocked()
	}
	w, err := openWAL(filepath.Join(s.dir, walName(s.idle)), s.fsync)
	if err != nil {
		return err
	}
	s.wal, s.walSeq, s.idle = w, s.idle, 0
	s.met.walBytes.Set(float64(w.bytes))
	return nil
}

func (s *Store) rotateLocked() error {
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			return err
		}
		s.wal = nil
	}
	next := s.maxWALSeqLocked() + 1
	w, err := createWAL(filepath.Join(s.dir, walName(next)), s.fsync)
	if err != nil {
		return err
	}
	s.wal = w
	s.walSeq = next
	s.met.walBytes.Set(float64(w.bytes))
	return nil
}

// maxWALSeqLocked scans the directory for the highest wal-<seq>.log
// present, 0 when none. os.ReadDir returns entries sorted by name, so
// the scan is deterministic.
func (s *Store) maxWALSeqLocked() uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return s.walSeq
	}
	max := uint64(0)
	for _, e := range entries {
		if seq, ok := parseWALName(e.Name()); ok && seq > max {
			max = seq
		}
	}
	if s.walSeq > max {
		max = s.walSeq
	}
	return max
}

// Append encodes recs into the open WAL file and flushes them to the OS
// (plus fsync when configured). The call is atomic with respect to
// Rotate: a snapshot barrier either sees the whole batch in the old file
// or finds it in the new one.
func (s *Store) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoWAL
	}
	if err := s.wal.append(recs); err != nil {
		return err
	}
	s.met.walBytes.Set(float64(s.wal.bytes))
	s.met.walRecords.Add(uint64(len(recs)))
	return nil
}

// WALStats reports the byte size of the open WAL file and the total
// records written to it since it was opened.
func (s *Store) WALStats() (bytes, records int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.bytes, s.wal.records
}

// LastSnapshot reports the committed snapshot's sequence number and the
// wall-clock time of the commit (zero when the commit predates this
// process).
func (s *Store) LastSnapshot() (seq uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return 0, time.Time{}
	}
	return s.man.Seq, s.lastMan
}

// Close flushes and closes the open WAL file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}

// Snapshot is the captured system state Commit persists, all read at
// the WAL rotation barrier: the frozen arena, the graph it was built
// from, the follow edges applied since (Pending), the posting lists and
// live tweets, and the world they sit on.
//
// A nil payload means "unchanged since the last commit": the new
// manifest names the previous manifest's file for that segment. The
// world never changes for the life of a binding, so only the binding's
// first commit sets it; the arena and its graph change only when a
// rebuild installs a new arena, so Index and Graph are nil together
// whenever the arena is the one the last commit wrote.
type Snapshot struct {
	World    *synth.Dataset
	Graph    *graph.Graph
	Pending  [][2]graph.NodeID // sorted by (u, v); none of them in Graph
	Postings [][]kb.Posting
	Tweets   []tweets.Tweet
	// MaxHops is the arena's hop bound and Index its serializer — the
	// frozen 2-hop arena's WriteTo.
	MaxHops int
	Index   io.WriterTo
}

// Commit writes snap as the next snapshot generation: a segment file for
// each payload snap carries, then the manifest (atomically, via rename),
// naming the previous manifest's file for each payload snap leaves nil,
// then prunes segments no manifest names and WAL files older than the
// rotation barrier. A nil payload with no previous manifest is
// ErrNoCarry. The caller must have rotated the WAL while capturing snap,
// so the manifest's WALSeq points at records applied after the capture.
func (s *Store) Commit(snap Snapshot) (uint64, error) {
	start := time.Now()
	s.mu.Lock()
	prev := s.man
	walSeq := s.walSeq
	s.mu.Unlock()
	if walSeq == 0 {
		return 0, ErrNoWAL
	}
	if (snap.Graph == nil) != (snap.Index == nil) {
		return 0, errors.New("store: Snapshot.Graph and Snapshot.Index are written or carried together")
	}
	if prev == nil && (snap.World == nil || snap.Index == nil) {
		return 0, ErrNoCarry
	}
	seq := uint64(1)
	if prev != nil {
		seq = prev.Seq + 1
	}

	type segment struct {
		name  string
		write func(path string) error
	}
	framed := func(name string, kind uint8, payload func(io.Writer) error) segment {
		return segment{name, func(path string) error { return writeSegment(path, kind, payload) }}
	}
	segs := []segment{
		framed(segPendingName, segKindPending, func(w io.Writer) error { return writePendingPayload(w, snap.Pending) }),
		framed(segCKBName, segKindCKB, func(w io.Writer) error { return writePostingsPayload(w, snap.Postings) }),
		framed(segTweetsName, segKindTweets, func(w io.Writer) error { return writeTweetsPayload(w, snap.Tweets) }),
	}
	man := &Manifest{
		Version:     manifestVersion,
		Seq:         seq,
		CreatedUnix: start.Unix(),
		Reach:       ReachStreaming,
		MaxHops:     snap.MaxHops,
		WALSeq:      walSeq,
		Segments:    make(map[string]string, len(segNames)),
	}
	carry := func(names ...string) {
		for _, name := range names {
			man.Segments[name] = prev.Segments[name]
		}
	}
	if snap.World != nil {
		man.World = snap.World.Params
		segs = append(segs, framed(segWorldName, segKindWorld, func(w io.Writer) error { return writeWorldPayload(w, snap.World) }))
	} else {
		man.World = prev.World
		carry(segWorldName)
	}
	if snap.Index != nil {
		segs = append(segs,
			framed(segGraphName, segKindGraph, func(w io.Writer) error { return writeGraphPayload(w, snap.Graph) }),
			segment{segReachName, func(path string) error { return writeRawSegment(path, snap.Index) }})
	} else {
		carry(segGraphName, segReachName)
	}
	// Segment writes run off the store lock: they are pure file IO on
	// fresh names no reader can see until the manifest commits.
	for _, sg := range segs {
		man.Segments[sg.name] = segName(seq, sg.name)
		if err := sg.write(filepath.Join(s.dir, man.Segments[sg.name])); err != nil {
			return 0, err
		}
	}
	if err := writeManifest(s.dir, man); err != nil {
		return 0, err
	}

	s.mu.Lock()
	s.man = man
	s.lastMan = time.Now()
	s.met.snapshotSeconds.ObserveSince(start)
	s.mu.Unlock()
	return seq, s.prune(man)
}

// prune removes segments from older generations and WAL files below the
// committed barrier. The manifest is already durable, so a prune failure
// is reported but does not invalidate the commit.
func (s *Store) prune(man *Manifest) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	keep := make(map[string]bool, len(man.Segments)+2)
	for _, f := range man.Segments {
		keep[f] = true
	}
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseWALName(name); ok {
			if seq < man.WALSeq {
				errs = append(errs, os.Remove(filepath.Join(s.dir, name)))
			}
			continue
		}
		if isSegName(name) && !keep[name] {
			errs = append(errs, os.Remove(filepath.Join(s.dir, name)))
		}
	}
	return errors.Join(errs...)
}

// LoadGraph reads the committed graph segment: the graph the reach
// segment's arena was built from.
func (s *Store) LoadGraph() (*graph.Graph, error) {
	return loadSegment(s, segGraphName, segKindGraph, readGraphPayload)
}

// LoadPending reads the committed pending segment: the follow edges
// applied after the arena's graph, sorted by (u, v).
func (s *Store) LoadPending() ([][2]graph.NodeID, error) {
	return loadSegment(s, segPendingName, segKindPending, readPendingPayload)
}

// LoadPostings reads the committed complemented-KB segment: one posting
// list per entity, time-sorted as captured.
func (s *Store) LoadPostings() ([][]kb.Posting, error) {
	return loadSegment(s, segCKBName, segKindCKB, readPostingsPayload)
}

// LoadWorld reads the committed world segment: the dataset the system
// serves, exactly as its first snapshot wrote it.
func (s *Store) LoadWorld() (*synth.Dataset, error) {
	return loadSegment(s, segWorldName, segKindWorld, readWorldPayload)
}

// LoadTweets reads the committed live-tweet segment in arrival order.
func (s *Store) LoadTweets() ([]tweets.Tweet, error) {
	return loadSegment(s, segTweetsName, segKindTweets, readTweetsPayload)
}

// loadSegment reads the committed segment name through decode.
func loadSegment[T any](s *Store, name string, kind uint8, decode func(*decoder) (T, error)) (T, error) {
	var v T
	path, err := s.segPath(name)
	if err != nil {
		return v, err
	}
	err = readSegment(path, kind, func(d *decoder) error {
		var err error
		v, err = decode(d)
		return err
	})
	return v, err
}

// OpenReach opens the committed reachability segment for reading. The
// file is in the reach package's own serialized format (versioned,
// fingerprinted, checksummed); feed it to reach.ReadTwoHop.
func (s *Store) OpenReach() (io.ReadCloser, error) {
	path, err := s.segPath(segReachName)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

func (s *Store) segPath(kind string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return "", ErrNoSnapshot
	}
	f, ok := s.man.Segments[kind]
	if !ok {
		return "", fmt.Errorf("%w: manifest missing %s segment", ErrManifest, kind)
	}
	return filepath.Join(s.dir, f), nil
}

// ReplayStats summarises one Replay pass.
type ReplayStats struct {
	Files    int   // WAL files visited
	Records  int64 // records delivered to the callback
	Bytes    int64 // record bytes replayed (excluding file headers)
	TornTail bool  // the last file ended mid-record (truncated away)
}

// Replay streams every WAL record since the committed snapshot through
// fn, in append order across files. A torn record at the tail of the
// last file is the expected crash signature: it is truncated off (so
// later passes see a clean file) and reported in the stats; so is a last
// file torn inside its header (a crash between its create and its header
// write), which holds no records and has its header rewritten. A torn or
// checksum-failing record, or a torn header, anywhere else is
// ErrWALCorrupt, and its file is left as found. Replay is part
// of the single-threaded open protocol — it must not run concurrently
// with Append or Rotate.
func (s *Store) Replay(fn func(*Record) error) (ReplayStats, error) {
	start := time.Now()
	s.mu.Lock()
	if s.man == nil {
		s.mu.Unlock()
		return ReplayStats{}, ErrNoSnapshot
	}
	first := s.man.WALSeq
	last := s.maxWALSeqLocked()
	s.mu.Unlock()

	var stats ReplayStats
	idle := uint64(0)
	for seq := first; seq <= last; seq++ {
		path := filepath.Join(s.dir, walName(seq))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue
		}
		records, bytes, torn, err := replayWALFile(path, seq == last, fn)
		stats.Files++
		stats.Records += records
		stats.Bytes += bytes
		if err != nil {
			return stats, err
		}
		if torn {
			if seq != last {
				return stats, fmt.Errorf("%w: %s torn mid-sequence (file %d of %d)",
					ErrWALCorrupt, walName(seq), seq, last)
			}
			stats.TornTail = true
		}
		idle = 0
		if records == 0 && !torn {
			idle = seq
		}
	}
	s.mu.Lock()
	if idle == last {
		s.idle = idle
	}
	s.met.replaySeconds.ObserveSince(start)
	s.mu.Unlock()
	return stats, nil
}

// metrics is the microlink_store_* family: all fields nil (every update
// a no-op) until Instrument.
type metrics struct {
	walBytes        *obs.Gauge
	walRecords      *obs.Counter
	snapshotSeconds *obs.Histogram
	replaySeconds   *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		walBytes: reg.Gauge("microlink_store_wal_bytes",
			"Size of the open write-ahead-log file (resets on snapshot rotation)."),
		walRecords: reg.Counter("microlink_store_wal_records_total",
			"Mutation records appended to the write-ahead log."),
		snapshotSeconds: reg.Histogram("microlink_store_snapshot_seconds",
			"Duration of snapshot segment writes and manifest commits.", nil),
		replaySeconds: reg.Histogram("microlink_store_replay_seconds",
			"Duration of WAL replay at warm open.", nil),
	}
}
