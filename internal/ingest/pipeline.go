package ingest

import (
	"context"
	"io"
	"sync"

	"microlink/internal/obs"
	"microlink/internal/store"
)

// Pipeline is the staged firehose conduit described in the package
// comment. Construct with New; events enter via Offer/Submit/Run and are
// applied by a single background goroutine, or via Apply on the caller's
// goroutine; both apply under one lock, so all mutation paths see a
// serialised event order. Close drains and stops both background
// goroutines.
//
// Locking. sendMu protects the intake channel against send-on-closed
// races: every sender holds the read side for the duration of its send,
// and Close flips closed and closes the channel under the write side, so
// no send can be in flight when the channel closes; Apply holds the read
// side across its apply, so none runs after Close. rebuildMu serialises
// rebuilds (threshold kick, timer and ForceRebuild can race) and sits
// above every lock a rebuild takes: the streaming substrate's snapshot
// lock, the builder pool, and the linker's write lock for the install.
// applyMu serialises batch application against the snapshot barrier: the
// applier holds it for the whole of apply (mutations plus the WAL tee),
// and Barrier holds it while capturing live state and rotating the WAL,
// so a snapshot never splits a batch between segments and log.
//
// microlint:lock-order ingest-send < ingest-apply
// microlint:lock-order ingest-rebuild < linker
// microlint:lock-order ingest-rebuild < reach-stream
// microlint:lock-order ingest-rebuild < reach-build
// microlint:lock-order ingest-apply < linker
// microlint:lock-order ingest-apply < reach-stream
// microlint:lock-order ingest-apply < tweets-live
// microlint:lock-order ingest-apply < ckb
// microlint:lock-order ingest-apply < store
type Pipeline struct {
	deps Deps
	cfg  Config

	in chan store.Record

	sendMu sync.RWMutex // microlint:lock-order ingest-send
	closed bool         // microlint:guarded-by sendMu

	applyMu sync.Mutex // microlint:lock-order ingest-apply
	journal Journal    // microlint:guarded-by applyMu — nil until a store attaches

	rebuildMu   sync.Mutex // microlint:lock-order ingest-rebuild
	kick        chan struct{}
	stop        chan struct{}
	done        chan struct{}
	rebuildDone chan struct{}

	met metrics
}

// New validates deps, fills cfg defaults, registers the pipeline's
// metrics in deps.Metrics, and starts the applier and rebuild-manager
// goroutines. The pipeline runs until Close.
func New(deps Deps, cfg Config) (*Pipeline, error) {
	if deps.Linker == nil || deps.Stream == nil || deps.Live == nil || deps.Metrics == nil {
		return nil, errDeps
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.RebuildAfterEdges == 0 {
		cfg.RebuildAfterEdges = DefaultRebuildAfterEdges
	}
	p := &Pipeline{
		deps:        deps,
		cfg:         cfg,
		journal:     deps.Journal,
		in:          make(chan store.Record, cfg.Queue),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		rebuildDone: make(chan struct{}),
		met:         newMetrics(deps.Metrics),
	}
	// A restored substrate can inherit staleness from its snapshot's
	// pending edges; past the threshold it catches up now, not at the
	// next follow.
	st := deps.Stream.Staleness()
	p.met.staleness.Set(float64(st))
	p.kickIfStale(st)
	go p.applier()
	go p.rebuildLoop()
	return p, nil
}

// Offer enqueues ev without blocking, reporting whether it was accepted.
// A full queue sheds the event and bumps microlink_ingest_dropped_total;
// a malformed event (see Submit) or a closed pipeline reports false
// without counting a drop.
func (p *Pipeline) Offer(ev store.Record) bool {
	if check(&ev) != nil {
		return false
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.in <- ev:
		return true
	default:
		p.met.dropped.Inc()
		return false
	}
}

// Submit enqueues ev, blocking until the queue has room, the pipeline
// closes, or ctx is cancelled. An event of unknown kind, or a tweet or
// feedback event without its tweet, is refused with ErrInvalidEvent
// before it is queued.
func (p *Pipeline) Submit(ctx context.Context, ev store.Record) error {
	if err := check(&ev); err != nil {
		return err
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.in <- ev:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run drains src into the pipeline under the configured backpressure
// policy until the source ends (io.EOF, returned as nil), errors, or ctx
// is cancelled. With BlockOnFull unset, events that find the queue full
// are shed (counted) and Run keeps going.
func (p *Pipeline) Run(ctx context.Context, src Source) error {
	for {
		ev, err := src.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if p.cfg.BlockOnFull {
			if err := p.Submit(ctx, ev); err != nil {
				return err
			}
		} else {
			p.Offer(ev)
		}
	}
}

// Close stops intake, waits for the applier to drain every buffered
// event, then stops the rebuild manager. ctx bounds the wait; on
// cancellation the background goroutines are left to finish on their
// own. Close is not idempotent: a second call returns ErrClosed.
func (p *Pipeline) Close(ctx context.Context) error {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return ErrClosed
	}
	p.closed = true
	close(p.in)
	p.sendMu.Unlock()

	select {
	case <-p.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	close(p.stop)
	select {
	case <-p.rebuildDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// Stats snapshots pipeline progress. Its counts are the
// microlink_ingest_* counters of Deps.Metrics, read back: what /metrics
// exports, shared by every pipeline on that registry.
func (p *Pipeline) Stats() Stats {
	return Stats{
		AppliedTweets:   int64(p.met.evTweet.Value()),
		AppliedFollows:  int64(p.met.evFollow.Value()),
		AppliedFeedback: int64(p.met.evFeedback.Value()),
		InsertedEdges:   int64(p.met.inserted.Value()),
		Dropped:         int64(p.met.dropped.Value()),
		Rebuilds:        int64(p.met.rebuilds.Value()),
		Swaps:           p.deps.Stream.Swaps(),
		QueueDepth:      len(p.in),
		Staleness:       p.deps.Stream.Staleness(),
		JournalFailures: int64(p.met.journalFails.Value()),
	}
}

// applier is the single consumer goroutine: it drains the intake
// channel, coalescing up to MaxBatch already-pending events per round so
// a burst of follow edges costs one substrate lock instead of one each,
// and applies the batch. It exits when Close closes the channel, after
// applying everything buffered before the close.
func (p *Pipeline) applier() {
	defer close(p.done)
	batch := make([]store.Record, 0, p.cfg.MaxBatch)
	for open := true; open; {
		ev, ok := <-p.in
		if !ok {
			return
		}
		batch = append(batch[:0], ev)
	coalesce:
		for len(batch) < p.cfg.MaxBatch {
			select {
			case ev, ok := <-p.in:
				if !ok {
					open = false
					break coalesce
				}
				batch = append(batch, ev)
			default:
				break coalesce
			}
		}
		//nolint:microlint/errdrop -- a queued event has no caller to answer: Apply refuses only follows naming a user outside the graph (consumed, not journaled, counted as applied follows), and a failed tee is counted in microlink_ingest_journal_failures_total
		p.apply(batch)
		p.met.queueDepth.Set(float64(len(p.in)))
	}
}

// Apply applies ev on the caller's goroutine as a batch of one, under the
// applier's lock and WAL tee, and returns after the journal append: the
// journaled record (a tweet carries the links it resolved and fed back)
// and ErrInvalidEvent, ErrClosed, Deps.Apply's rejection, or the
// journal's error (the state has changed). It takes no queue slot, so it
// may overtake queued events; the journal keeps the applied order.
func (p *Pipeline) Apply(ev store.Record) (store.Record, error) {
	if err := check(&ev); err != nil {
		return store.Record{}, err
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return store.Record{}, ErrClosed
	}
	recs, err := p.apply([]store.Record{ev})
	if len(recs) == 0 {
		return store.Record{}, err
	}
	return recs[0], err
}

// apply runs one batch through Deps.Apply, tees the records it returns
// into the journal, publishes the counts, and returns the records with
// the journal's error, else Deps.Apply's rejection.
//
// The whole batch — mutations plus the WAL tee — runs under applyMu, so
// a snapshot barrier observes batches whole: every mutation it captures
// in segments has its record behind the rotation point, and every record
// ahead of it replays onto state that does not contain it yet. Tweet
// records carry the links actually fed back, so replay reapplies the
// stream without re-running the linker.
func (p *Pipeline) apply(batch []store.Record) ([]store.Record, error) {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	recs, t, err := p.deps.Apply(batch, true, make([]store.Record, 0, len(batch)))
	if p.journal != nil && len(recs) > 0 {
		// A failed append loses durability for this batch, not liveness:
		// serving state is already updated, so count it and report it.
		if jerr := p.journal.Append(recs); jerr != nil {
			p.met.journalFails.Inc()
			err = jerr
		}
	}
	p.met.evTweet.Add(uint64(t.Tweets))
	p.met.evFeedback.Add(uint64(t.Feedback))
	if t.Follows > 0 {
		p.met.inserted.Add(uint64(t.Inserted))
		p.met.evFollow.Add(uint64(t.Follows))
		st := p.deps.Stream.Staleness()
		p.met.staleness.Set(float64(st))
		p.kickIfStale(st)
	}
	return recs, err
}

// kickIfStale wakes the rebuild manager when staleness has reached the
// RebuildAfterEdges threshold.
func (p *Pipeline) kickIfStale(staleness int64) {
	if p.cfg.RebuildAfterEdges > 0 && staleness >= int64(p.cfg.RebuildAfterEdges) {
		select {
		case p.kick <- struct{}{}:
		default: // a rebuild is already pending
		}
	}
}

// Barrier runs fn with batch application frozen: no batch is mid-apply
// and none can start until fn returns. The snapshot path captures live
// state (postings, tweets) and rotates the WAL inside fn, making the
// segment/log split exact; fn receives a setter so it can attach (or
// replace) the journal under the same critical section.
func (p *Pipeline) Barrier(fn func(setJournal func(Journal))) {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	fn(func(j Journal) { p.journal = j })
}

// metrics are the pipeline's instruments (satellite of DESIGN.md §7)
// and the only copy of its counts: Stats reads them back. The per-kind
// counters are resolved once here so the applier's hot path never
// touches the registry.
type metrics struct {
	queueDepth     *obs.Gauge
	evTweet        *obs.Counter
	evFollow       *obs.Counter
	evFeedback     *obs.Counter
	inserted       *obs.Counter
	dropped        *obs.Counter
	rebuilds       *obs.Counter
	rebuildSeconds *obs.Histogram
	staleness      *obs.Gauge
	journalFails   *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	ev := reg.CounterVec("microlink_ingest_events_total",
		"Firehose events applied, by kind.", "kind")
	return metrics{
		queueDepth: reg.Gauge("microlink_ingest_queue_depth",
			"Events buffered in the ingest intake queue."),
		evTweet:    ev.With(store.RecTweet.String()),
		evFollow:   ev.With(store.RecFollow.String()),
		evFeedback: ev.With(store.RecFeedback.String()),
		inserted: reg.Counter("microlink_ingest_edges_inserted_total",
			"Applied follow edges that were new to the live graph."),
		dropped: reg.Counter("microlink_ingest_dropped_total",
			"Events shed at intake because the queue was full."),
		rebuilds: reg.Counter("microlink_ingest_rebuilds_total",
			"Background arena rebuilds completed."),
		rebuildSeconds: reg.Histogram("microlink_ingest_rebuild_seconds",
			"Duration of copy-on-swap 2-hop arena rebuilds.", nil),
		staleness: reg.Gauge("microlink_ingest_staleness_events",
			"Follow edges applied to the live graph but not yet reflected in the frozen arena."),
		journalFails: reg.Counter("microlink_ingest_journal_failures_total",
			"Applied batches whose WAL tee failed (state mutated, durability lost)."),
	}
}
