// Package core implements the paper's entity linker (§3.2): on-the-fly,
// per-mention scoring of candidate entities by the social-temporal
// context of Eq. 1,
//
//	S(e) = α·S_in(u,e) + β·S_r(e) + γ·S_p(e)
//
// combining user interest via weighted reachability to influential
// community members (Eq. 8), entity recency with propagation (Eq. 9/11),
// and entity popularity (Eq. 2). Mentions are linked independently — no
// intra- or inter-tweet joint inference — which is what makes the
// framework fast enough for stream-rate linking.
//
// Scoring decomposes into a user-independent part (candidate generation,
// popularity, recency — functions of the mention surface and time only)
// and a user-dependent part (interest). The batch pipeline in batch.go
// exploits the split: queries sharing a now pay each recency cluster's
// propagation once, queries sharing (surface, now) pay the other shared
// stages once, and the per-(user, entity) interest values are memoised
// in a sharded generation-stamped cache (cache.go).
//
// Naming note: the paper's α/β/γ are internally inconsistent (Eq. 1 binds
// β to popularity and γ to recency, while Table 3, Table 4 and Fig. 6(d)
// clearly treat β as recency and γ as popularity, e.g. "β=1" scoring
// between interest and popularity). Config uses explicit field names;
// Table 3's defaults are α=0.6, recency 0.3, popularity 0.1.
package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"microlink/internal/candidate"
	"microlink/internal/influence"
	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/tweets"
)

// Config weighs the three features of Eq. 1 and sizes the influential-user
// truncation of Eq. 8. Zero values select the paper's defaults (Table 3).
type Config struct {
	WInterest   float64 // α: user interest weight (default 0.6)
	WRecency    float64 // β: entity recency weight (default 0.3)
	WPopularity float64 // γ: entity popularity weight (default 0.1)
	// TopInfluential is the number of most influential users whose
	// weighted reachability is averaged in Eq. 8 (§4.1.2). ≤ 0 selects the
	// default 5. To average over every user instead, set WholeCommunity.
	TopInfluential int
	// WholeCommunity disables influential-user truncation and averages
	// reachability over the entire community U_e (Eq. 3) — the expensive
	// variant of Fig. 5(c).
	WholeCommunity bool
	// MinInterest floors the raw per-candidate interest before
	// normalisation: averages below it (incidental long multi-hop paths —
	// the small-world noise §4.1.1 warns about: "reachable does not mean
	// interested") are treated as no interest at all, so that a user with
	// no real interest in any candidate lets recency and popularity
	// decide. ≤ 0 selects the default 0.05; pass a tiny positive value
	// (e.g. 1e-12) to effectively disable the floor.
	MinInterest float64
	// Batch tunes the concurrent batch pipeline and interest cache (see
	// batch.go); the zero value selects sensible defaults.
	Batch BatchOptions
}

func (c *Config) fill() {
	if c.WInterest == 0 && c.WRecency == 0 && c.WPopularity == 0 {
		c.WInterest, c.WRecency, c.WPopularity = 0.6, 0.3, 0.1
	}
	if c.TopInfluential <= 0 {
		c.TopInfluential = 5
	}
	if c.MinInterest <= 0 {
		c.MinInterest = 0.05
	}
}

// Scored is one ranked candidate with its feature breakdown.
type Scored struct {
	Entity     kb.EntityID
	Score      float64
	Interest   float64 // S_in(u, e)
	Recency    float64 // S_r(e)
	Popularity float64 // S_p(e)
}

// Linker is the paper's prototype system. Scoring paths are safe for
// concurrent use; Feedback takes the write side of mu so the multi-step
// KB append + cache invalidation of §3.2.2 is atomic with respect to
// concurrent scoring.
type Linker struct {
	ckb   *kb.Complemented
	cand  *candidate.Index
	reach reach.Index
	inf   *influence.Estimator
	rec   *recency.Scorer
	cfg   Config

	// cache memoises raw S_in(u, e) values; nil when disabled. Reads and
	// writes happen under mu's read side, invalidation under the write
	// side (Feedback) or InvalidateReachability.
	cache *interestCache

	// mu serialises the interactive feedback path (write) against scoring
	// (read). The substrates lock individually, but Feedback spans three of
	// them (complemented KB, influence cache, interest cache); without this
	// lock a scorer can observe the new posting with a stale
	// influential-user set.
	//
	// mu is the root of the module's lock hierarchy: it is held while the
	// substrate locks below are acquired, never the reverse. Declared
	// edges (checked by microlint/deadlockcheck, documented in DESIGN.md §6):
	//
	// microlint:lock-order linker < interest-shard
	// microlint:lock-order linker < ckb
	// microlint:lock-order linker < influence
	mu sync.RWMutex // microlint:lock-order linker

	// met is the hot-path instrumentation, registered by New and
	// immutable after it; every field is nil (each update a no-op) when
	// New got a nil registry.
	met linkerMetrics
}

// linkerMetrics holds the hot-path instrumentation: per-stage latency
// histograms for the four Eq. 1 sections (candidate, popularity,
// recency, interest), the end-to-end per-mention latency,
// mention/tweet/feedback counters, interest-cache hit/miss counters, the
// batch-size histogram, and the batch pool-depth gauge.
type linkerMetrics struct {
	stage        *obs.HistogramVec // microlink_linker_stage_seconds{stage}
	link         *obs.Histogram    // microlink_linker_link_seconds
	mentions     *obs.Counter      // microlink_linker_mentions_total
	misses       *obs.Counter      // microlink_linker_unlinkable_total
	tweets       *obs.Counter      // microlink_linker_tweets_total
	feedback     *obs.Counter      // microlink_linker_feedback_total
	cacheHits    *obs.Counter      // microlink_linker_interest_cache_hits_total
	cacheMisses  *obs.Counter      // microlink_linker_interest_cache_misses_total
	batchSize    *obs.Histogram    // microlink_linker_batch_size_queries
	batchWorkers *obs.Gauge        // microlink_linker_batch_workers_active
}

func newLinkerMetrics(reg *obs.Registry) linkerMetrics {
	return linkerMetrics{
		stage: reg.HistogramVec("microlink_linker_stage_seconds",
			"Per-stage Eq. 1 scoring latency.", nil, "stage"),
		link: reg.Histogram("microlink_linker_link_seconds",
			"End-to-end per-mention linking latency.", nil),
		mentions: reg.Counter("microlink_linker_mentions_total",
			"Mentions scored."),
		misses: reg.Counter("microlink_linker_unlinkable_total",
			"Mentions with no candidate entities."),
		tweets: reg.Counter("microlink_linker_tweets_total",
			"Tweets linked via LinkTweet."),
		feedback: reg.Counter("microlink_linker_feedback_total",
			"Confirmed links appended via the interactive feedback path."),
		cacheHits: reg.Counter("microlink_linker_interest_cache_hits_total",
			"Interest-cache lookups answered without reachability averaging."),
		cacheMisses: reg.Counter("microlink_linker_interest_cache_misses_total",
			"Interest-cache lookups that recomputed Eq. 8."),
		batchSize: reg.Histogram("microlink_linker_batch_size_queries",
			"Queries per LinkBatch call.", obs.ExpBuckets(1, 2, 12)),
		batchWorkers: reg.Gauge("microlink_linker_batch_workers_active",
			"Batch pool workers currently scoring a now-group."),
	}
}

// New assembles a Linker from its substrates and registers its metrics
// in reg; a nil reg leaves the linker uninstrumented.
func New(ckb *kb.Complemented, cand *candidate.Index, rx reach.Index, inf *influence.Estimator, rec *recency.Scorer, cfg Config, reg *obs.Registry) *Linker {
	cfg.fill()
	l := &Linker{ckb: ckb, cand: cand, reach: rx, inf: inf, rec: rec, cfg: cfg, met: newLinkerMetrics(reg)}
	if !cfg.Batch.DisableInterestCache {
		l.cache = newInterestCache(ckb.KB().NumEntities(), cacheEntriesPerShard)
	}
	return l
}

// Name implements the eval.Linker convention.
func (l *Linker) Name() string { return "social-temporal" }

// Config returns the effective configuration.
func (l *Linker) Config() Config { return l.cfg }

// StageStats returns a snapshot of the per-stage latency histograms keyed
// by stage name (candidate, popularity, recency, interest), or nil when
// the linker is uninstrumented.
func (l *Linker) StageStats() map[string]obs.HistogramSnapshot {
	return l.met.stage.Snapshots()
}

// CacheStats returns the interest cache's hit/miss counts: the
// microlink_linker_interest_cache_{hits,misses}_total counters of the
// registry New was given. Both are zero on an uninstrumented or
// cache-disabled linker.
func (l *Linker) CacheStats() (hits, misses uint64) {
	return l.met.cacheHits.Value(), l.met.cacheMisses.Value()
}

// sharedScores is the user-independent part of one Eq. 1 evaluation: the
// candidate set for a surface plus its normalised popularity and recency
// vectors at one instant. Queries that differ only in the querying user
// can share it (LinkBatch does); it must not outlive the read-locked
// critical section it was computed in.
type sharedScores struct {
	ents    []kb.EntityID
	setHash uint64 // candidate-set stamp for the interest cache
	pops    []float64
	recs    []float64
}

// sharedLocked computes the candidate, popularity and recency stages,
// recency through at. Returns nil when the surface has no candidates.
// Callers hold mu.RLock.
func (l *Linker) sharedLocked(at *recency.View, surface string) *sharedScores {
	sw := obs.StartStopwatch(l.met.stage)

	cands := l.cand.Candidates(surface)
	sw.Stage("candidate")
	if len(cands) == 0 {
		return nil
	}
	ents := candidate.Entities(cands)

	// S_p (Eq. 2): complemented-KB tweet counts normalised over E_m.
	pops := make([]float64, len(ents))
	var popSum float64
	for i, e := range ents {
		pops[i] = float64(l.ckb.Count(e))
		popSum += pops[i]
	}
	if popSum > 0 {
		for i := range pops {
			pops[i] /= popSum
		}
	}
	sw.Stage("popularity")

	// S_r (Eq. 9 + 11).
	recs := at.Scores(ents)
	sw.Stage("recency")

	return &sharedScores{ents: ents, setHash: hashEntitySet(ents), pops: pops, recs: recs}
}

// finishLocked computes the user-dependent interest stage against sh and
// combines Eq. 1, sorted by descending score (ties by ascending entity
// ID). Callers hold mu.RLock.
func (l *Linker) finishLocked(ctx context.Context, u kb.UserID, sh *sharedScores) ([]Scored, error) {
	sw := obs.StartStopwatch(l.met.stage)
	ints, err := l.interests(ctx, u, sh)
	if err != nil {
		return nil, err
	}
	sw.Stage("interest")

	out := make([]Scored, len(sh.ents))
	for i, e := range sh.ents {
		out[i] = Scored{
			Entity:     e,
			Interest:   ints[i],
			Recency:    sh.recs[i],
			Popularity: sh.pops[i],
		}
		out[i].Score = l.cfg.WInterest*out[i].Interest +
			l.cfg.WRecency*out[i].Recency +
			l.cfg.WPopularity*out[i].Popularity
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out, nil
}

// interests computes the S_in vector (Eq. 8) for u over sh.ents, floored
// by MinInterest and normalised over the candidate set. Like S_p (Eq. 2)
// and S_r (Eq. 9) it is normalised so the three features of Eq. 1 mix on
// a common scale; the paper normalises the other two explicitly and
// leaves Eq. 8 raw, which would let a structurally small reachability
// value be drowned by the normalised features.
//
// Raw S_in(u, e) is the mean of R(u, v) over the averaged users of e:
// the influential users U_e* (Eq. 8), or the whole community U_e (Eq. 3)
// under WholeCommunity. Cache hits are answered first; the averaged users
// of every missing candidate are then gathered into one RFrom call, so
// the author's reachability labels are read once per mention, and each
// candidate's run is summed in user order — the same additions, in the
// same order, as one R call per user. Callers hold mu.RLock, which makes
// the cache generation read, the computation and the store atomic with
// respect to Feedback's invalidation bumps.
func (l *Linker) interests(ctx context.Context, u kb.UserID, sh *sharedScores) ([]float64, error) {
	ints := make([]float64, len(sh.ents))
	g := gatherPool.Get().(*gather)
	defer gatherPool.Put(g)
	g.misses, g.users = g.misses[:0], g.users[:0]
	for i, e := range sh.ents {
		if i&7 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if v, ok := l.cache.get(u, e, sh.setHash); ok {
			l.met.cacheHits.Inc()
			ints[i] = v
			continue
		}
		var users []kb.UserID
		if l.cfg.WholeCommunity {
			users = l.ckb.Community(e)
		} else {
			users = l.inf.TopInfluential(e, sh.ents, l.cfg.TopInfluential)
		}
		g.users = append(g.users, users...)
		g.misses = append(g.misses, gatherRun{cand: i, end: len(g.users)})
	}
	if len(g.users) > 0 {
		g.rs = slices.Grow(g.rs[:0], len(g.users))[:len(g.users)]
		l.reach.RFrom(u, g.users, g.rs)
	}
	start := 0
	for _, m := range g.misses {
		var v float64
		if run := g.rs[start:m.end]; len(run) > 0 {
			var sum float64
			for _, r := range run {
				sum += r
			}
			v = sum / float64(len(run))
		}
		start = m.end
		ints[m.cand] = v
		if l.cache != nil {
			l.cache.put(u, sh.ents[m.cand], sh.setHash, v)
			l.met.cacheMisses.Inc()
		}
	}
	var sum float64
	for i := range ints {
		if ints[i] < l.cfg.MinInterest {
			ints[i] = 0 // small-world noise, not interest
		}
		sum += ints[i]
	}
	if sum > 0 {
		for i := range ints {
			ints[i] /= sum
		}
	}
	return ints, nil
}

// gather is interests' pooled scratch: the averaged users of every
// cache-missing candidate back to back, their reachabilities from the
// author, and where each candidate's run ends.
type gather struct {
	users  []kb.UserID
	rs     []float64
	misses []gatherRun
}

// gatherRun is one missing candidate's run: users[prev end : end].
type gatherRun struct {
	cand int // index into the candidate set
	end  int
}

var gatherPool = sync.Pool{New: func() any { return new(gather) }}

// ScoreCandidatesCtx generates E_m for surface and scores every candidate
// by Eq. 1 for the given author and time, sorted by descending score (ties
// by ascending entity ID). An unknown surface yields nil with a nil error.
// The context is observed between scoring stages and inside the interest
// loop: cancellation or an expired deadline aborts with ctx.Err(), and the
// deadline propagates into nothing blocking — every stage is pure
// in-memory computation, so the check granularity is a few microseconds.
func (l *Linker) ScoreCandidatesCtx(ctx context.Context, u kb.UserID, now int64, surface string) ([]Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.met.mentions.Inc()
	total := obs.StartSpan(l.met.link)
	defer total.Stop()

	sh := l.sharedLocked(l.rec.At(now), surface)
	if sh == nil {
		l.met.misses.Inc()
		return nil, nil
	}
	return l.finishLocked(ctx, u, sh)
}

// ScoreCandidates is ScoreCandidatesCtx with a background context.
func (l *Linker) ScoreCandidates(u kb.UserID, now int64, surface string) []Scored {
	//nolint:microlint/errdrop -- background context cannot be cancelled, so the error is impossible here
	out, _ := l.ScoreCandidatesCtx(context.Background(), u, now, surface)
	return out
}

// LinkMentionCtx links one mention to its best entity. ok is false when
// the surface has no candidates; a non-nil error reports context
// cancellation or deadline expiry.
func (l *Linker) LinkMentionCtx(ctx context.Context, u kb.UserID, now int64, surface string) (kb.EntityID, bool, error) {
	scored, err := l.ScoreCandidatesCtx(ctx, u, now, surface)
	if err != nil || len(scored) == 0 {
		return kb.NoEntity, false, err
	}
	return scored[0].Entity, true, nil
}

// LinkMention is LinkMentionCtx with a background context.
func (l *Linker) LinkMention(u kb.UserID, now int64, surface string) (kb.EntityID, bool) {
	//nolint:microlint/errdrop -- background context cannot be cancelled, so the error is impossible here
	e, ok, _ := l.LinkMentionCtx(context.Background(), u, now, surface)
	return e, ok
}

// NewEntityThreshold returns β+γ — the score ceiling of any candidate the
// user has no interest in (Appendix D). TopK entries at or below it are
// suppressed so that mentions of entities missing from the KB produce an
// empty result rather than a false positive.
func (l *Linker) NewEntityThreshold() float64 { return l.cfg.WRecency + l.cfg.WPopularity }

// TopKCtx returns up to k candidates whose score strictly exceeds the
// new-entity threshold. An empty result signals that the mention likely
// refers to an entity or meaning absent from the knowledgebase.
func (l *Linker) TopKCtx(ctx context.Context, u kb.UserID, now int64, surface string, k int) ([]Scored, error) {
	scored, err := l.ScoreCandidatesCtx(ctx, u, now, surface)
	if err != nil {
		return nil, err
	}
	thr := l.NewEntityThreshold()
	out := scored[:0:0]
	for _, s := range scored {
		if s.Score <= thr {
			continue
		}
		out = append(out, s)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// TopK is TopKCtx with a background context.
func (l *Linker) TopK(u kb.UserID, now int64, surface string, k int) []Scored {
	//nolint:microlint/errdrop -- background context cannot be cancelled, so the error is impossible here
	out, _ := l.TopKCtx(context.Background(), u, now, surface, k)
	return out
}

// LinkTweet links every mention of tw independently (§1.1's third
// difference: no joint inference), returning one entity per mention.
func (l *Linker) LinkTweet(tw *tweets.Tweet) []kb.EntityID {
	l.met.tweets.Inc()
	out := make([]kb.EntityID, len(tw.Mentions))
	for i, m := range tw.Mentions {
		e, ok := l.LinkMention(tw.User, tw.Time, m.Surface)
		if !ok {
			e = kb.NoEntity
		}
		out[i] = e
	}
	return out
}

// Feedback implements the interactive update path of §3.2.2: once the
// linking of tw is confirmed, the tweet is appended to the complemented
// knowledgebase under each linked entity e, and the cached influential-user
// sets and interest values of e and of every entity ranked against a
// candidate set holding e are invalidated (Eqs. 6–7 span the whole set).
// links must be parallel to tw.Mentions; kb.NoEntity entries are skipped.
func (l *Linker) Feedback(tw *tweets.Tweet, links []kb.EntityID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range links {
		if e == kb.NoEntity {
			continue
		}
		l.ckb.Link(e, kb.Posting{Tweet: tw.ID, User: tw.User, Time: tw.Time})
		for _, x := range l.inf.Invalidate(e) {
			l.cache.invalidateEntity(x)
		}
		l.met.feedback.Inc()
	}
}

// UpdateReachability runs fn — a mutation of the reachability substrate,
// e.g. installing a rebuilt streaming arena — under the linker's write
// lock, excluding every concurrent scorer, then drops all cached interest
// values (a new arena can move any user's weighted reachability, so every
// cached S_in is suspect). The arena swap and the cache flush are thereby
// one atomic event to scorers.
func (l *Linker) UpdateReachability(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fn != nil {
		fn()
	}
	l.cache.invalidateAll()
}

// InvalidateReachability drops every cached interest value without
// mutating the substrate — for callers that changed reachability out of
// band and only need the cache flushed.
func (l *Linker) InvalidateReachability() { l.UpdateReachability(nil) }
