// Package microlink is a from-scratch reproduction of "Microblog Entity
// Linking with Social Temporal Context" (SIGMOD 2015): an on-the-fly
// entity linker for microblog streams that scores candidate entities by
// user interest (weighted reachability over the followee–follower network
// to influential community members), entity recency (sliding-window bursts
// with PageRank-style propagation between related entities), and entity
// popularity.
//
// The package is a thin facade: it re-exports the building blocks from the
// internal packages and wires them into a ready-to-query System. Typical
// use:
//
//	world := microlink.Generate(microlink.WorldParams{Seed: 1})
//	sys := microlink.Build(world, microlink.Options{})
//	entity, ok := sys.Linker.LinkMention(user, now, "jordan")
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every table and figure of the paper.
package microlink

import (
	"fmt"
	"sort"
	"sync"

	"microlink/internal/baseline"
	"microlink/internal/candidate"
	"microlink/internal/core"
	"microlink/internal/eval"
	"microlink/internal/influence"
	"microlink/internal/ingest"
	"microlink/internal/kb"
	"microlink/internal/ner"
	"microlink/internal/obs"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/store"
	"microlink/internal/synth"
	"microlink/internal/tweets"
)

// Re-exported building blocks. The aliases give external callers access to
// the full engine API without reaching into internal packages.
type (
	// WorldParams configures the synthetic world generator.
	WorldParams = synth.Params
	// World is a generated dataset: graph, KB, tweet corpus, events.
	World = synth.Dataset
	// WorldEvent is one scheduled burst in a generated world.
	WorldEvent = synth.Event
	// Linker is the paper's social-temporal linker.
	Linker = core.Linker
	// LinkerConfig weighs the Eq. 1 features.
	LinkerConfig = core.Config
	// Scored is a ranked candidate with its feature breakdown.
	Scored = core.Scored
	// MentionQuery is one (user, time, surface) triple for Linker.LinkBatch.
	MentionQuery = core.MentionQuery
	// BatchResult is the per-query outcome of Linker.LinkBatch.
	BatchResult = core.BatchResult
	// BatchOptions tunes the concurrent batch pipeline and interest cache.
	BatchOptions = core.BatchOptions
	// Tweet is one microblog posting.
	Tweet = tweets.Tweet
	// Mention is one entity mention inside a tweet.
	Mention = tweets.Mention
	// TweetStore is a frozen tweet corpus.
	TweetStore = tweets.Store
	// LiveStore is the append-only tweet corpus fed by the ingest
	// pipeline.
	LiveStore = tweets.LiveStore
	// KB is the base knowledgebase.
	KB = kb.KB
	// ComplementedKB carries per-entity postings (Definition 5).
	ComplementedKB = kb.Complemented
	// Posting is one confirmed (tweet, user, time) link in the
	// complemented KB.
	Posting = kb.Posting
	// EntityID identifies a knowledgebase entity.
	EntityID = kb.EntityID
	// UserID identifies a social-network user.
	UserID = kb.UserID
	// Accuracy is an evaluation tally.
	Accuracy = eval.Accuracy
	// EvalLinker is the contract shared by all evaluated linkers.
	EvalLinker = eval.Linker
	// NER is the longest-cover mention extractor.
	NER = ner.Extractor
	// CandidateIndex generates candidate entity sets (exact + fuzzy).
	CandidateIndex = candidate.Index
	// ReachIndex answers weighted reachability queries.
	ReachIndex = reach.Index
	// MetricsRegistry is the observability registry every built System
	// carries (see internal/obs): counters, gauges, latency histograms,
	// and a Prometheus text-exposition writer.
	MetricsRegistry = obs.Registry
	// HistogramSnapshot is a point-in-time histogram view with quantile
	// estimation (p50/p95/p99 via Quantile).
	HistogramSnapshot = obs.HistogramSnapshot
	// OnTheFlyBaseline is the TagMe-style comparator [14].
	OnTheFlyBaseline = baseline.OnTheFly
	// CollectiveBaseline is the batch comparator [2].
	CollectiveBaseline = baseline.Collective
	// IngestPipeline is the streaming firehose pipeline (see
	// internal/ingest and DESIGN.md §7); obtain one with
	// System.StartIngest.
	IngestPipeline = ingest.Pipeline
	// IngestConfig tunes the pipeline's queue, batching, backpressure
	// policy and rebuild cadence.
	IngestConfig = ingest.Config
	// IngestEvent is one firehose item (tweet, follow edge, feedback):
	// the write-ahead log's record type, so what the pipeline accepts is
	// what it journals and what a warm restart replays.
	IngestEvent = store.Record
	// IngestSource yields firehose events for IngestPipeline.Run.
	IngestSource = ingest.Source
	// IngestStats is a point-in-time snapshot of pipeline progress.
	IngestStats = ingest.Stats
)

// Firehose event constructors, re-exported from internal/store.
var (
	// TweetEvent wraps a posted tweet (nil links ⇒ link on apply).
	TweetEvent = store.TweetRecord
	// FollowEvent wraps a new follow edge u → v.
	FollowEvent = store.FollowRecord
	// FeedbackEvent wraps an explicit linking correction.
	FeedbackEvent = store.FeedbackRecord
)

// NoEntity marks an unlinkable mention.
const NoEntity = kb.NoEntity

// ReachKind selects the weighted reachability substrate.
type ReachKind int

// Reachability substrates (§4.1.1).
const (
	// ReachClosure is the extended transitive closure (Algorithm 1):
	// fastest queries, largest index, never persisted (Snapshot refuses
	// it).
	ReachClosure ReachKind = iota
	// ReachStreaming is the extended 2-hop cover (Algorithm 2): a frozen
	// arena serving queries lock-free — compact, slower queries than the
	// closure — paired with a live edge set absorbing follow edges
	// online; the ingest pipeline's rebuild manager periodically
	// re-freezes the cover and copy-on-swaps it in. Required by
	// System.StartIngest, and so by every write, and by System.Snapshot.
	// A system that is never sent a follow serves the static 2-hop cover.
	ReachStreaming
)

// Options wires a System. Zero values choose the paper's defaults:
// transitive-closure reachability with H=4, entropy influence, collective
// complementation over users with ≥10 postings, and Table 3's weights.
type Options struct {
	// Linker weighs the Eq. 1 features (Table 3 defaults when zero);
	// Linker.Batch tunes the batch pipeline and the interest cache.
	Linker LinkerConfig
	// Reach selects the reachability substrate.
	Reach ReachKind
	// MaxHops is the reachability hop bound H (default 4).
	MaxHops int
	// InfluenceMethod selects Eq. 6 (TFIDF) or Eq. 7 (Entropy, default).
	InfluenceMethod influence.Method
	// Recency configures the sliding window and propagation (Table 3
	// defaults when zero).
	Recency recency.Options
	// ComplementTheta is the activity threshold θ of the complementation
	// corpus (default 10, the paper's D10).
	ComplementTheta int
	// TruthComplement complements the KB with ground-truth links instead
	// of running the collective linker — an oracle for controlled
	// experiments.
	TruthComplement bool
	// Candidate configures fuzzy candidate generation.
	Candidate candidate.Options
	// PrebuiltReach substitutes a previously built (or loaded) reachability
	// index; when set, Build skips index construction and ignores Reach.
	// It must have been built over the same graph (see Open).
	PrebuiltReach ReachIndex
	// Fsync syncs the write-ahead log on every append when the system is
	// bound to a data directory (Open / System.Snapshot). Off, appends
	// are flushed to the OS per batch — durable against process death
	// (kill -9) but not against power loss.
	Fsync bool
}

// System is a fully wired linking stack over one world.
type System struct {
	World      *World
	CKB        *ComplementedKB
	Candidates *CandidateIndex
	Reach      ReachIndex
	Influence  *influence.Estimator
	Recency    *recency.Scorer
	Linker     *Linker
	NER        *NER

	// Metrics is the system's observability registry: the linker's
	// per-stage timings, reachability query histograms, and anything the
	// serving layer adds (HTTP traffic, runtime gauges). Always non-nil.
	// Expose it over HTTP with Metrics.Handler() or print it with
	// Metrics.WritePrometheus.
	Metrics *MetricsRegistry

	// TestSet holds the inactive-user tweets (≤9 postings) reserved for
	// evaluation, mirroring the paper's Dtest.
	TestSet *TweetStore

	// Live is the append-only corpus receiving streamed tweets; empty
	// until an ingest pipeline runs.
	Live *LiveStore

	ingestMu sync.Mutex      // microlint:lock-order sys-ingest
	pipe     *IngestPipeline // microlint:guarded-by ingestMu

	// persistMu serialises snapshot commits and store attachment. It is
	// acquired before every other lock a snapshot touches: the barrier
	// (ingest-apply), the store, and the state locks captured under the
	// barrier. StartIngest reads persist before taking ingestMu, so
	// sys-ingest never nests inside sys-persist's subordinates.
	//
	// microlint:lock-order sys-persist < sys-ingest
	// microlint:lock-order sys-persist < ingest-apply
	// microlint:lock-order sys-persist < store
	// microlint:lock-order sys-persist < ckb
	// microlint:lock-order sys-persist < reach-stream
	// microlint:lock-order sys-persist < tweets-live
	persistMu sync.Mutex    // microlint:lock-order sys-persist
	persist   *store.Store  // microlint:guarded-by persistMu — nil until Open/Snapshot binds a directory
	persisted *reach.TwoHop // microlint:guarded-by persistMu — the arena persist's manifest names
	fsync     bool

	textOnce sync.Once
	textByID map[int64]string
}

// Generate creates a synthetic world (see internal/synth for the
// generative model and DESIGN.md §3 for why it stands in for the paper's
// Twitter/Wikipedia data).
func Generate(p WorldParams) *World { return synth.Generate(p) }

// Build assembles the full linking stack over a generated world.
func Build(w *World, opts Options) *System { return build(w, opts, nil) }

// build is Build parameterised over a pre-existing complemented KB: the
// warm-restart path (Open) supplies one restored from a snapshot segment
// so the offline complementation phase — collective linking over the
// whole active corpus — is skipped entirely.
func build(w *World, opts Options, pre *kb.Complemented) *System {
	if opts.MaxHops <= 0 {
		opts.MaxHops = reach.DefaultMaxHops
	}
	if opts.ComplementTheta <= 0 {
		opts.ComplementTheta = 10
	}

	cand := candidate.NewIndex(w.KB, opts.Candidate)

	var ckb *kb.Complemented
	switch {
	case pre != nil:
		ckb = pre
	case opts.TruthComplement:
		ckb = w.ComplementTruth(w.Store.FilterByActivity(opts.ComplementTheta, 0))
	default:
		ckb = w.ComplementCollective(w.Store.FilterByActivity(opts.ComplementTheta, 0), cand)
	}

	rx := opts.PrebuiltReach
	if rx == nil {
		rx = buildReach(w, opts)
	}

	reg := obs.NewRegistry()
	if st, ok := unwrapReach(rx).(*reach.Streaming); ok {
		reach.PublishTwoHopBuild(st.Frozen(), reg)
	}
	rx = reach.Instrument(rx, reg)

	inf := influence.New(ckb, opts.InfluenceMethod)
	var net *recency.PropNet
	if !opts.Recency.NoPropagation {
		theta2 := opts.Recency.Theta2
		if theta2 <= 0 {
			theta2 = recency.DefaultTheta2
		}
		net = recency.BuildPropNet(w.KB, theta2)
	}
	rec := recency.NewScorer(ckb, net, opts.Recency, reg)
	linker := core.New(ckb, cand, rx, inf, rec, opts.Linker, reg)

	return &System{
		World:      w,
		CKB:        ckb,
		Candidates: cand,
		Reach:      rx,
		Influence:  inf,
		Recency:    rec,
		Linker:     linker,
		NER:        ner.NewExtractor(w.KB, ner.Options{}),
		Metrics:    reg,
		TestSet:    w.Store.FilterByActivity(1, 9),
		Live:       tweets.NewLiveStore(),
		fsync:      opts.Fsync,
	}
}

// unwrapReach peels the metrics wrapper off an index, returning the raw
// substrate for type-dependent operations (serialisation, the ingest
// pipeline).
func unwrapReach(idx reach.Index) reach.Index {
	if x, ok := idx.(*reach.Instrumented); ok {
		return x.Unwrap()
	}
	return idx
}

func buildReach(w *World, opts Options) reach.Index {
	if opts.Reach == ReachStreaming {
		return reach.NewStreaming(w.Graph, reach.TwoHopOptions{MaxHops: opts.MaxHops})
	}
	return reach.BuildTransitiveClosure(w.Graph, reach.ClosureOptions{MaxHops: opts.MaxHops})
}

// ErrNotStreaming is returned by StartIngest, RebuildReach and Snapshot
// when the system does not serve the streaming substrate (built
// with ReachStreaming, or reopened by Open).
var ErrNotStreaming = fmt.Errorf("microlink: reachability substrate is not streaming (build with Options{Reach: ReachStreaming})")

// ErrIngestRunning is returned by StartIngest when a pipeline is already
// attached to this system.
var ErrIngestRunning = fmt.Errorf("microlink: ingest pipeline already started")

// ErrInvalidEvent is returned (wrapped, saying why) by
// IngestPipeline.Submit and IngestPipeline.Apply for an event of unknown kind, or a tweet or
// feedback event without its tweet; Offer refuses such an event.
var ErrInvalidEvent = ingest.ErrInvalidEvent

// StartIngest attaches a streaming firehose pipeline to the system and
// starts its applier and rebuild-manager goroutines. The pipeline is the
// system's one write path: firehose events go through Offer and Submit,
// and a write whose caller answers from the result (a confirmed link, a
// fed-back tweet) through Apply, which returns after the WAL tee. Requires
// Options.Reach = ReachStreaming (the pipeline's copy-on-swap rebuilds
// need the frozen-arena + live-graph pairing); at most one pipeline
// per system. Stop it with Pipeline.Close.
func (s *System) StartIngest(cfg IngestConfig) (*IngestPipeline, error) {
	st, ok := unwrapReach(s.Reach).(*reach.Streaming)
	if !ok {
		return nil, ErrNotStreaming
	}
	// Read the store before ingestMu: persistMu sits above sys-ingest in
	// the lock order (Snapshot holds it while querying the pipeline).
	s.persistMu.Lock()
	var journal ingest.Journal
	if s.persist != nil {
		journal = s.persist
	}
	s.persistMu.Unlock()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.pipe != nil {
		return nil, ErrIngestRunning
	}
	p, err := ingest.New(ingest.Deps{
		Linker:  s.Linker,
		Stream:  st,
		Live:    s.Live,
		Metrics: s.Metrics,
		Journal: journal,
	}, cfg)
	if err != nil {
		return nil, err
	}
	s.pipe = p
	return p, nil
}

// Ingest returns the pipeline started with StartIngest, or nil.
func (s *System) Ingest() *IngestPipeline {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.pipe
}

// OnTheFly returns the TagMe-style baseline over this system's KB.
func (s *System) OnTheFly() *OnTheFlyBaseline {
	return baseline.NewOnTheFly(s.World.KB, s.Candidates, baseline.OnTheFlyOptions{})
}

// Collective returns the batch baseline [2] whose user histories come from
// store (typically the test set, matching the paper's protocol).
func (s *System) Collective(store *TweetStore) *CollectiveBaseline {
	return baseline.NewCollective(s.World.KB, s.Candidates, store)
}

// Evaluate scores a linker against ground truth on ts.
func Evaluate(l EvalLinker, ts []Tweet) Accuracy { return eval.Evaluate(l, ts) }

// SearchResult is one answer of the personalized microblog search flow
// (§3.2.2, Fig. 1): a tweet retrieved because it is linked to one of the
// top-k entities of a query mention.
type SearchResult struct {
	Entity  EntityID
	Score   float64 // the entity's Eq. 1 score for the querying user
	Posting kb.Posting
	// Text is the tweet's text when the system stored the tweet: in the
	// world's store, or in the live corpus (ingested, fed back, or
	// restored from a snapshot). A confirmed link to a tweet the system
	// never stored (linked read-only, e.g. /v1/tweet without feedback)
	// is searchable with empty Text; post the tweet with feedback for
	// searchable text.
	Text string
}

// Search implements personalized microblog search: mentions are extracted
// from the query, disambiguated per-user with the social-temporal scorer,
// and the postings linked to the winning entities are returned, most
// recent first. An empty result for a mention-bearing query signals the
// Appendix D case: the intended meaning is probably missing from the KB.
func (s *System) Search(user UserID, now int64, query string, k int) []SearchResult {
	spans := s.NER.Extract(query)
	var out []SearchResult
	for _, sp := range spans {
		for _, scored := range s.Linker.TopK(user, now, sp.Surface, k) {
			for _, p := range s.CKB.Postings(scored.Entity) {
				out = append(out, SearchResult{
					Entity:  scored.Entity,
					Score:   scored.Score,
					Posting: p,
					Text:    s.tweetText(p.Tweet),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Posting.Time != out[j].Posting.Time {
			return out[i].Posting.Time > out[j].Posting.Time
		}
		return out[i].Posting.Tweet > out[j].Posting.Tweet
	})
	return out
}

// tweetText resolves a tweet id against the world's store, through a map
// built on first use, and then against the live corpus, which holds the
// tweets that arrived through ingest or were restored from a snapshot.
func (s *System) tweetText(id int64) string {
	s.textOnce.Do(func() {
		s.textByID = make(map[int64]string, s.World.Store.Len())
		for _, tw := range s.World.Store.All() {
			s.textByID[tw.ID] = tw.Text
		}
	})
	if text, ok := s.textByID[id]; ok {
		return text
	}
	text, _ := s.Live.Text(id)
	return text
}

// Describe returns a one-paragraph summary of the system's configuration,
// for CLI banners and experiment logs.
func (s *System) Describe() string {
	cfg := s.Linker.Config()
	return fmt.Sprintf(
		"microlink: %d users / %d entities / %d tweets; weights α=%.2f β=%.2f γ=%.2f; influence=%s; reach index=%T (%.1f MB)",
		s.World.Graph.NumNodes(), s.World.KB.NumEntities(), s.World.Store.Len(),
		cfg.WInterest, cfg.WRecency, cfg.WPopularity,
		s.Influence.Method(), unwrapReach(s.Reach), float64(s.Reach.SizeBytes())/(1<<20),
	)
}
