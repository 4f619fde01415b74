// Package ingest implements the streaming firehose pipeline that keeps a
// running linker incrementally fresh: a staged, bounded-queue conduit
// accepting tweet, follow-edge and feedback events and routing them into
// the serving stack's existing mutation paths, plus a background rebuild
// manager that periodically re-freezes the 2-hop reachability arena and
// copy-on-swaps it in without ever blocking queries.
//
// It is also the stack's one write path: an event is a store.Record, the
// WAL's record type, and Deps.Apply and Deps.Rebuild are the only apply
// and rebuild, shared with WAL replay and System.RebuildReach. Every
// mutation of a serving stack — firehose events, confirmed links,
// fed-back tweets — runs through a pipeline and its WAL tee.
//
// # Stages
//
// Events enter through Offer (non-blocking; drops with a counter when the
// queue is full) or Submit (blocks with context cancellation) into one
// bounded channel, or through Apply, which applies on the caller's
// goroutine and returns after the WAL tee; all three refuse a malformed
// event (ErrInvalidEvent). A single applier goroutine drains the channel,
// coalescing up to Config.MaxBatch pending events per round so follow
// edges amortise one lock acquisition across the batch, and applies each
// kind to its mutation path:
//
//   - tweets append to the live corpus (tweets.LiveStore) and, unless
//     pre-linked, run through Linker.LinkTweet; the resulting links feed
//     Linker.Feedback so the comprehensive KB and influence caches track
//     the stream,
//   - follow edges batch into reach.Streaming.InsertEdges, joining the
//     live graph's edge tail while the frozen query arena stays untouched,
//   - feedback events call Linker.Feedback directly.
//
// # Staleness and rebuilds
//
// Queries are served lock-free from the frozen 2-hop arena, so every
// applied follow edge widens the gap between the live graph and the
// serving index. That gap is the pipeline's staleness
// (microlink_ingest_staleness_events). When it reaches
// Config.RebuildAfterEdges — or every Config.RebuildInterval, whichever
// fires first — the rebuild manager snapshots the live adjacency, runs
// the parallel 2-hop builder off the hot path, and installs the new
// arena inside Linker.UpdateReachability, whose write lock makes the
// swap plus interest-cache flush atomic with respect to scorers.
// Staleness then returns to zero (minus any edges that arrived during
// the build). Queries observe bounded staleness, never a torn index.
package ingest

import (
	"context"
	"errors"
	"time"

	"microlink/internal/core"
	"microlink/internal/obs"
	"microlink/internal/reach"
	"microlink/internal/store"
	"microlink/internal/tweets"
)

// Source yields firehose events. Next blocks until an event is ready,
// the stream ends (io.EOF), or ctx is cancelled. Pipeline.Run drains a
// Source into the pipeline under the configured backpressure policy.
type Source interface {
	Next(ctx context.Context) (store.Record, error)
}

// Config tunes a Pipeline. The zero value selects all defaults.
type Config struct {
	// Queue is the bounded intake capacity. ≤ 0 selects DefaultQueue.
	Queue int
	// MaxBatch bounds how many pending events one applier round
	// coalesces. ≤ 0 selects DefaultMaxBatch.
	MaxBatch int
	// BlockOnFull selects the backpressure policy used by Run: true
	// blocks the source (Submit), false sheds load at intake (Offer,
	// counted in microlink_ingest_dropped_total). Direct Offer/Submit
	// callers choose per call.
	BlockOnFull bool
	// RebuildAfterEdges triggers a background arena rebuild once that
	// many follow edges have been applied beyond the frozen snapshot.
	// 0 selects DefaultRebuildAfterEdges; < 0 disables the threshold.
	RebuildAfterEdges int
	// RebuildInterval additionally rebuilds on a timer when staleness
	// is non-zero. 0 disables the timer.
	RebuildInterval time.Duration
}

// Pipeline defaults.
const (
	DefaultQueue             = 1024
	DefaultMaxBatch          = 64
	DefaultRebuildAfterEdges = 512
)

// Journal receives the durable tee of applied mutations: the applier
// appends one record per event, per batch, while holding the apply lock.
// *store.Store satisfies it. Append must not call back into the pipeline.
type Journal interface {
	Append(recs []store.Record) error
}

// Deps wires a Pipeline into a serving stack. New requires Linker,
// Stream, Live (the stack's own live corpus: tweets applied anywhere else
// are invisible to search) and Metrics (the registry holding the counts
// Stats reads); Journal may be nil (no durable tee; a persistence layer
// can attach one later via Barrier).
// Apply and Rebuild also run on a Deps without a pipeline (WAL replay,
// System.RebuildReach), where Metrics may be nil.
type Deps struct {
	Linker  *core.Linker
	Stream  *reach.Streaming
	Live    *tweets.LiveStore
	Metrics *obs.Registry
	Journal Journal
}

// ErrClosed is returned by Submit, Apply and Close after the pipeline
// has been closed.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrInvalidEvent is returned (wrapped, saying why) by Submit and Apply
// for an event the applier cannot apply: an unknown kind, or a tweet or
// feedback event without its tweet. Offer reports such an event as not
// accepted.
var ErrInvalidEvent = errors.New("ingest: invalid event")

// errDeps reports a New call missing a required dependency.
var errDeps = errors.New("ingest: Deps.Linker, Deps.Stream, Deps.Live and Deps.Metrics are required")

// Stats is a point-in-time snapshot of pipeline progress. The counts are
// the microlink_ingest_* counters of Deps.Metrics, named beside each.
type Stats struct {
	AppliedTweets   int64 // tweets appended to the live corpus (events_total{kind="tweet"})
	AppliedFollows  int64 // follow events applied, including duplicates and those rejected for an unknown user (events_total{kind="follow"})
	AppliedFeedback int64 // explicit feedback events applied (events_total{kind="feedback"})
	InsertedEdges   int64 // follow edges that were new to the live graph (edges_inserted_total)
	Dropped         int64 // events shed at intake, Offer on a full queue (dropped_total)
	Rebuilds        int64 // background arena rebuilds completed (rebuilds_total)
	Swaps           int64 // arenas installed by copy-on-swap (normally equal to Rebuilds)
	QueueDepth      int   // events currently buffered
	Staleness       int64 // edges applied but not yet in the frozen arena
	JournalFailures int64 // batches whose WAL tee failed, state applied and durability lost (journal_failures_total)
}
