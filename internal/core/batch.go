package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"microlink/internal/kb"
	"microlink/internal/obs"
	"microlink/internal/recency"
)

// BatchOptions tunes the concurrent batch pipeline and the interest cache.
// The zero value selects the defaults noted on each field.
type BatchOptions struct {
	// Workers bounds the LinkBatch worker pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// DisableInterestCache turns off the (user, entity) interest cache,
	// recomputing Eq. 8 on every score — the pre-cache behaviour, kept for
	// benchmarks and bisection.
	DisableInterestCache bool
}

// MentionQuery is one (user, time, surface) triple to score.
type MentionQuery struct {
	User    kb.UserID
	Now     int64
	Surface string
}

// BatchResult is the outcome of one MentionQuery. Exactly one of the
// following holds: Err is non-nil (the item was cancelled, timed out, or
// panicked — Entity is kb.NoEntity and Scored nil); or Err is nil and
// Scored carries the full ranking with Entity its best candidate (both
// empty/kb.NoEntity for an unlinkable surface, mirroring LinkMention's
// ok=false).
type BatchResult struct {
	Entity kb.EntityID
	Scored []Scored
	Err    error
}

// LinkBatch scores many mention queries concurrently and returns one
// BatchResult per query, in input order.
//
// The pipeline exploits the Eq. 1 split between user-independent and
// user-dependent work. Queries are grouped by now, then by surface, each
// in order of first appearance. The unit of work is one now-group: it
// pays recency through one recency.View, so each propagation cluster
// runs Eq. 11 at most once per distinct now in the batch (Eq. 11 does
// not depend on the mention); each surface in it pays candidate
// generation and popularity once; and only the interest stage runs per
// query (answered from the interest cache when a live entry exists).
// Now-groups fan out across a worker pool of min(BatchOptions.Workers,
// distinct nows) goroutines (Workers defaults to GOMAXPROCS).
//
// Failure isolation is per item: a cancelled or expired context marks the
// not-yet-scored items with ctx.Err() and returns promptly without
// discarding completed ones, and a panic while scoring one item is
// captured into that item's Err. LinkBatch only reads linker state, so it
// is safe to run concurrently with Feedback and with reachability arena
// installs; each now-group observes one consistent snapshot (it scores
// entirely inside one read-locked critical section).
func (l *Linker) LinkBatch(ctx context.Context, queries []MentionQuery) []BatchResult {
	res := make([]BatchResult, len(queries))
	l.met.batchSize.Observe(float64(len(queries)))
	if len(queries) == 0 {
		return res
	}

	type groupKey struct {
		now     int64
		surface string
	}
	nowIdx := make(map[int64]int)
	surfIdx := make(map[groupKey]int)
	var order []nowGroup
	for i, q := range queries {
		ni, ok := nowIdx[q.Now]
		if !ok {
			ni = len(order)
			nowIdx[q.Now] = ni
			order = append(order, nowGroup{now: q.Now})
		}
		g := &order[ni]
		k := groupKey{now: q.Now, surface: q.Surface}
		si, ok := surfIdx[k]
		if !ok {
			si = len(g.surfaces)
			surfIdx[k] = si
			g.surfaces = append(g.surfaces, surfaceGroup{surface: q.Surface})
		}
		g.surfaces[si].idxs = append(g.surfaces[si].idxs, i)
	}

	workers := l.cfg.Batch.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}

	// cancelFrom marks every query of order[gi:] with ctx.Err(): the
	// drain path for work that will never be handed to a scorer.
	cancelFrom := func(gi int) {
		for _, g := range order[gi:] {
			for _, sg := range g.surfaces {
				for _, i := range sg.idxs {
					res[i] = BatchResult{Entity: kb.NoEntity, Err: ctx.Err()}
				}
			}
		}
	}

	if workers <= 1 {
		for gi := range order {
			if ctx.Err() != nil {
				cancelFrom(gi)
				break
			}
			l.scoreNow(ctx, &order[gi], queries, res)
		}
		return res
	}

	ch := make(chan *nowGroup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range ch {
				l.met.batchWorkers.Inc()
				l.scoreNow(ctx, g, queries, res)
				l.met.batchWorkers.Dec()
			}
		}()
	}
	// Feed now-groups until done or cancelled. Without the ctx arm a
	// cancelled batch would still march every remaining group through
	// the pool (each item individually erroring inside scoreSurface);
	// with it the pool drains as soon as the in-flight groups finish,
	// and the unsent remainder is marked cancelled here.
feed:
	for gi := range order {
		select {
		case ch <- &order[gi]:
		case <-ctx.Done():
			cancelFrom(gi)
			break feed
		}
	}
	close(ch)
	wg.Wait()
	return res
}

// nowGroup is every query of a batch at one instant, by surface.
type nowGroup struct {
	now      int64
	surfaces []surfaceGroup
}

// surfaceGroup is the indices of the queries of one now-group that share
// a surface.
type surfaceGroup struct {
	surface string
	idxs    []int
}

// scoreNow scores every query of g, writing into res. The whole group
// runs inside one read-locked critical section, so its items see one
// consistent snapshot of the knowledgebase and its surfaces share one
// recency view.
func (l *Linker) scoreNow(ctx context.Context, g *nowGroup, queries []MentionQuery, res []BatchResult) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	at := l.rec.At(g.now)
	for _, sg := range g.surfaces {
		l.scoreSurface(ctx, at, sg, queries, res)
	}
}

// scoreSurface scores the queries of sg through at. Callers hold
// mu.RLock.
func (l *Linker) scoreSurface(ctx context.Context, at *recency.View, sg surfaceGroup, queries []MentionQuery, res []BatchResult) {
	var sh *sharedScores
	if err := capture(func() { sh = l.sharedLocked(at, sg.surface) }); err != nil {
		for _, i := range sg.idxs {
			res[i] = BatchResult{Entity: kb.NoEntity, Err: err}
		}
		return
	}
	for _, i := range sg.idxs {
		l.met.mentions.Inc()
		switch {
		case ctx.Err() != nil:
			res[i] = BatchResult{Entity: kb.NoEntity, Err: ctx.Err()}
		case sh == nil:
			l.met.misses.Inc()
			res[i] = BatchResult{Entity: kb.NoEntity}
		default:
			i := i
			if err := capture(func() { res[i] = l.scoreItem(ctx, queries[i].User, sh) }); err != nil {
				res[i] = BatchResult{Entity: kb.NoEntity, Err: err}
			}
		}
	}
}

func (l *Linker) scoreItem(ctx context.Context, u kb.UserID, sh *sharedScores) BatchResult {
	span := obs.StartSpan(l.met.link)
	scored, err := l.finishLocked(ctx, u, sh)
	span.Stop()
	if err != nil {
		return BatchResult{Entity: kb.NoEntity, Err: err}
	}
	best := kb.NoEntity
	if len(scored) > 0 {
		best = scored[0].Entity
	}
	return BatchResult{Entity: best, Scored: scored}
}

// capture runs fn, converting a panic into an error so one poisoned query
// cannot take down the whole batch (or the server goroutine above it).
func capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("microlink: batch item panicked: %v", r)
		}
	}()
	fn()
	return nil
}
