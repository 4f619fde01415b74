package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"microlink"
	"microlink/internal/graph"
	"microlink/internal/store"
)

// Ingest configuration of firehose-mixed. A 2-hop rebuild of the
// 2000-user graph takes ≈3 s and uses both cores, and link latency
// during one is ten times what it is between two. A run this short holds
// one or two rebuilds, so wherever the rebuild manager's threshold put
// them, the share of the window spent rebuilding — and with it every
// median — would differ from run to run. The harness therefore places the
// rebuild itself: the threshold is off, phase A runs with none, and phase
// B runs rebuildsInB of them back to back and lasts as long as they do.
// The queue is short so the end-of-run drain stays inside the time budget.
var firehoseIngest = microlink.IngestConfig{RebuildAfterEdges: -1, Queue: 256}

const rebuildsInB = 2

// pipeSampler polls Pipeline.Stats on a 5 ms tick: queue depth and
// staleness as sample-and-hold series for the Little's-law integrals.
type pipeSampler struct {
	depth, stale []level
	stop         chan struct{}
	done         sync.WaitGroup
}

func startSampler(p *microlink.IngestPipeline) *pipeSampler {
	s := &pipeSampler{stop: make(chan struct{})}
	start := time.Now()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			st := p.Stats()
			at := time.Since(start)
			s.depth = append(s.depth, level{at, float64(st.QueueDepth)})
			s.stale = append(s.stale, level{at, float64(st.Staleness)})
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *pipeSampler) finish() {
	close(s.stop)
	s.done.Wait()
}

func peak(series []level) float64 {
	var m float64
	for _, l := range series {
		m = max(m, l.v)
	}
	return m
}

// firehoseMixed is the write path beside the read path. Phase A is two
// open loops at once — events on one connection, links on the other —
// and reports the link latency users see while the stream is ingested.
// Phase B forces arena rebuilds and, for as long as they run, pushes
// events as fast as they are accepted while the other connection keeps
// linking; it reports the rate at which the applier got through them.
func (r *run) firehoseMixed() error {
	b := r.bed
	pipe, err := b.sys.StartIngest(firehoseIngest)
	if err != nil {
		return err
	}
	dir, err := scratchDir(r.outDir, "firehose-*")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	if _, err := b.sys.Snapshot(dir); err != nil { // binds the directory: the WAL tee is on (Fsync off)
		return err
	}

	warm, aD, bD := r.warmUp(), r.dur(0.6), r.dur(0.4)
	nWarmEv, nAEv := int(mixedEventRate*warm.Seconds()), int(mixedEventRate*aD.Seconds())
	nWarmLk, nALk := int(mixedLinkRate*warm.Seconds()), int(mixedLinkRate*aD.Seconds())
	const offerProbe = 100
	nBEv := int(3000 * bD.Seconds()) // far above what the applier gets through
	events, err := b.streamRequests(r.seed+1, nWarmEv+nAEv+nBEv+offerProbe+r.sc.directEvents)
	if err != nil {
		return err
	}
	nBLk := int(8000 * bD.Seconds())
	links := b.linkRequests(r.seed+2, nWarmLk+nALk+nBLk)
	evConn, lkConn := newConn(b.base), newConn(b.base)
	defer evConn.close()
	defer lkConn.close()

	var status5xx atomic.Int64
	link := func(q linkReq) bool {
		status, _ := lkConn.do(http.MethodGet, q.path, nil)
		if status >= 500 {
			status5xx.Add(1)
		}
		return status == http.StatusOK
	}
	accepted := 0 // events the server answered 202; written by one goroutine at a time

	// Phase A.
	smp := startSampler(pipe)
	st0 := pipe.Stats()
	var evS, lkS []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		evS = openLoop(mixedEventRate, nWarmEv+nAEv, 1, func(_, i int) bool {
			status, _ := evConn.do(http.MethodPost, events[i].path, events[i].body)
			if status == http.StatusAccepted {
				accepted++
			}
			return status == http.StatusAccepted
		})
	}()
	go func() {
		defer wg.Done()
		lkS = openLoop(mixedLinkRate, nWarmLk+nALk, 1, func(_, i int) bool { return link(links[i]) })
	}()
	wg.Wait()
	smp.finish()
	st1 := pipe.Stats()
	aWall := smp.depth[len(smp.depth)-1].at.Seconds()

	okW, failW, _, _ := tally(append(evS[:nWarmEv:nWarmEv], lkS[:nWarmLk]...))
	r.rec.addPhase("warm-up", warm.Seconds(), okW, failW, 0)
	okE, failE, _, _ := tally(evS[nWarmEv:])
	r.rec.addPhase("A ingest open-loop", aD.Seconds(), okE, failE, 0)
	okL, failL, lat, late := tally(lkS[nWarmLk:])
	r.rec.addPhase("A link open-loop", aD.Seconds(), okL, failL, len(lat))
	ld := summarize(lat)
	r.rec.Dists["link.open_loop_under_ingest_ms"] = ld
	r.rec.e2e("latency_p50_ms", ld.P50, "ms")

	// Phase B: capacity, beside the forced rebuilds. A 503 queue_full is
	// the server's backpressure, not a failure: retry after 2 ms and
	// count it.
	bStart := time.Now()
	var retries, okLB, failLB int
	var pushing, rebuilding atomic.Bool
	pushing.Store(true)
	rebuilding.Store(true)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rebuildsInB; i++ {
			pipe.ForceRebuild()
		}
		rebuilding.Store(false)
	}()
	go func() {
		defer wg.Done()
		for i := 0; pushing.Load(); i++ {
			if link(links[nWarmLk+nALk+i%nBLk]) {
				okLB++
			} else {
				failLB++
			}
		}
	}()
	evBase := nWarmEv + nAEv
	var evB []sample
	for (rebuilding.Load() || time.Since(bStart) < bD) && len(evB) < nBEv {
		ev := events[evBase+len(evB)]
		status, _ := evConn.do(http.MethodPost, ev.path, ev.body)
		for ; status == http.StatusServiceUnavailable; status, _ = evConn.do(http.MethodPost, ev.path, ev.body) {
			retries++
			time.Sleep(2 * time.Millisecond)
		}
		evB = append(evB, sample{index: len(evB), done: time.Since(bStart), ok: status == http.StatusAccepted})
	}
	pushWall := time.Since(bStart)
	okB, failB, _, _ := tally(evB)
	accepted += okB
	// Offers made directly, still counted as accepted events: the traced
	// run reports their cost, the untraced run makes them too so both
	// apply the same stream.
	var offerUS []float64
	for _, e := range events[evBase+nBEv : evBase+nBEv+offerProbe] {
		ev := b.ingestEvent(e)
		for {
			t := time.Now()
			ok := pipe.Offer(ev)
			offerUS = append(offerUS, us(time.Since(t)))
			if ok {
				accepted++
				break
			}
			retries++
			time.Sleep(2 * time.Millisecond)
		}
	}
	for st := pipe.Stats(); st.AppliedTweets+st.AppliedFollows < int64(accepted); st = pipe.Stats() {
		time.Sleep(time.Millisecond)
	}
	bWall := time.Since(bStart) // everything accepted has been applied
	pushing.Store(false)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := pipe.Close(ctx); err != nil {
		return err
	}
	r.rec.addPhase("B ingest capacity", bWall.Seconds(), okB+offerProbe, failB, 0)
	r.rec.addPhase("B link closed-loop", bWall.Seconds(), okLB, failLB, 0)
	// Once the queue is full the server accepts exactly as fast as the
	// applier applies; the first slice, which also fills the queue, is one
	// outlier the median ignores.
	r.rec.e2e("throughput_per_s", steadyRate(evB, pushWall, eventSlice, 1), "1/s")

	pipe.ForceRebuild()
	fin := pipe.Stats()
	applied := fin.AppliedTweets + fin.AppliedFollows
	r.rec.check("accepted_equals_applied", int64(accepted) == applied, "accepted %d events, applied %d", accepted, applied)
	r.rec.check("journal_failures_zero", fin.JournalFailures == 0, "%d WAL tee failures", fin.JournalFailures)
	r.rec.check("staleness_zero_after_rebuild", fin.Staleness == 0, "staleness %d after ForceRebuild", fin.Staleness)
	if err := b.sys.ClosePersist(); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}

	lateD := summarize(late)
	appliedA := (st1.AppliedTweets + st1.AppliedFollows) - (st0.AppliedTweets + st0.AppliedFollows)
	r.rec.layer("httpapi.link_p95_ms", ld.at(95), "ms")
	r.rec.layer("httpapi.link_p99_ms", ld.at(99), "ms")
	r.rec.layer("httpapi.status_5xx", float64(status5xx.Load()), "count")
	r.rec.layer("loadgen.late_p50_ms", lateD.P50, "ms")
	r.rec.layer("loadgen.late_p99_ms", lateD.at(99), "ms")
	r.rec.layer("ingest.fail_share", float64(failE)/float64(okE+failE), "share")
	r.rec.layer("ingest.queue_depth_mean", integrate(smp.depth)/aWall, "count")
	r.rec.layer("ingest.queue_depth_max", peak(smp.depth), "count")
	r.rec.layer("ingest.staleness_peak_edges", peak(smp.stale), "count")
	if appliedA > 0 {
		r.rec.layer("ingest.apply_lag_mean_ms", integrate(smp.depth)/float64(appliedA)*1e3, "ms")
	}
	if edges := st1.InsertedEdges - st0.InsertedEdges; edges > 0 {
		r.rec.layer("ingest.arena_lag_mean_s", integrate(smp.stale)/float64(edges), "s")
	}
	r.rec.layer("ingest.shed_count", float64(fin.Dropped), "count")
	r.rec.layer("ingest.retries", float64(retries), "count")
	r.rec.layer("ingest.rebuilds", float64(fin.Rebuilds), "count")
	r.rec.layer("ingest.swaps", float64(fin.Swaps), "count")
	r.rec.layerDist("ingest.offer_us", offerUS, "us")
	r.rec.layer("reach.rebuild_ms", ms(b.sys.Reach.BuildStats().BuildTime), "ms")
	return r.traceIngest(events[evBase+nBEv+offerProbe:], okB+offerProbe, bWall)
}

// ingestEvent turns a stream event into the pipeline event the HTTP
// handler would have built from its request.
func (b *bed) ingestEvent(e eventReq) microlink.IngestEvent {
	if e.ev.Tweet == nil {
		return microlink.FollowEvent(e.ev.U, e.ev.V)
	}
	tw := microlink.Tweet{ID: e.ev.Tweet.ID, User: e.ev.Tweet.User, Time: e.ev.Tweet.Time, Text: e.ev.Tweet.Text}
	for _, sp := range b.sys.NER.Extract(tw.Text) {
		tw.Mentions = append(tw.Mentions, microlink.Mention{Surface: sp.Surface, Truth: microlink.NoEntity})
	}
	return microlink.TweetEvent(&tw, nil)
}

// traceIngest applies further stream events to the now-quiet system by
// calling the applier's steps one by one, in apply order, with a span
// around each; the WAL append goes to a scratch store.
func (r *run) traceIngest(events []eventReq, eventsB int, wallB time.Duration) error {
	b := r.bed
	stream, err := streaming(b.sys)
	if err != nil {
		return err
	}
	dir, err := scratchDir(r.outDir, "wal-*")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	wal, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	if err := wal.Rotate(); err != nil {
		return err
	}

	tr := newTracer()
	var mentions, tweets, follows, edges int
	var walErr error
	for i, e := range events {
		root := tr.begin("ingest.apply", i, -1)
		if e.ev.Tweet == nil {
			follows++
			tr.timed("store.append", i, root, func() {
				if err := wal.Append([]store.Record{store.FollowRecord(e.ev.U, e.ev.V)}); err != nil {
					walErr = err
				}
			})
			tr.timed("reach.insert_edges", i, root, func() {
				edges += stream.InsertEdges([][2]graph.NodeID{{e.ev.U, e.ev.V}})
			})
			tr.end(root)
			continue
		}
		tweets++
		tw := microlink.Tweet{ID: e.ev.Tweet.ID, User: e.ev.Tweet.User, Time: e.ev.Tweet.Time, Text: e.ev.Tweet.Text}
		tr.timed("ner.extract", i, root, func() {
			for _, sp := range b.sys.NER.Extract(tw.Text) {
				tw.Mentions = append(tw.Mentions, microlink.Mention{Surface: sp.Surface, Truth: microlink.NoEntity})
			}
		})
		mentions += len(tw.Mentions)
		tr.timed("tweets.append", i, root, func() { b.sys.Live.Append(tw) })
		var linked []microlink.EntityID
		tr.timed("core.link_tweet", i, root, func() { linked = b.sys.Linker.LinkTweet(&tw) })
		tr.timed("core.feedback", i, root, func() { b.sys.Linker.Feedback(&tw, linked) })
		tr.timed("store.append", i, root, func() {
			if err := wal.Append([]store.Record{store.TweetRecord(&tw, linked)}); err != nil {
				walErr = err
			}
		})
		tr.end(root)
	}
	walBytes, walRecords := wal.WALStats()
	if err := wal.Close(); err != nil {
		return err
	}
	if walErr != nil {
		return walErr
	}
	t := time.Now()
	b.sys.Linker.UpdateReachability(func() { stream.Install(stream.Frozen(), stream.Applied()) })
	r.rec.layer("reach.install_us", us(time.Since(t)), "us")
	if err := tr.write(r.outDir, r.rec.Workload); err != nil {
		return err
	}

	st := tr.stats()
	r.rec.layerDist("ner.extract_us", st.total["ner.extract"], "us")
	r.rec.layer("ner.mentions_per_tweet", float64(mentions)/float64(max(tweets, 1)), "count")
	r.rec.layerDist("tweets.append_us", st.total["tweets.append"], "us")
	r.rec.layerDist("core.link_tweet_us", st.total["core.link_tweet"], "us")
	r.rec.layerDist("core.feedback_us", st.total["core.feedback"], "us")
	r.rec.layerDist("store.append_us_per_record", st.total["store.append"], "us")
	r.rec.layer("store.wal_bytes_per_event", float64(walBytes)/float64(max(walRecords, 1)), "B")
	r.rec.layerDist("reach.insert_edges_us_per_edge", st.total["reach.insert_edges"], "us")

	// Share of the capacity phase's wall time that the applier's own
	// steps, at their quiet-system cost, do not explain: HTTP intake,
	// queueing, lock waits, and the core the rebuilds took.
	perEvent := mean(st.total["ingest.apply"])
	unacc := 1 - perEvent*float64(eventsB)/us(wallB)
	r.rec.layer("ingest.unaccounted_share", unacc, "share")
	reconcile("capacity phase, per event", us(wallB)/float64(eventsB), "us", []part{
		{"ner.extract", mean(st.total["ner.extract"]) * float64(tweets) / float64(len(events))},
		{"tweets.append", mean(st.total["tweets.append"]) * float64(tweets) / float64(len(events))},
		{"core.link_tweet", mean(st.total["core.link_tweet"]) * float64(tweets) / float64(len(events))},
		{"core.feedback", mean(st.total["core.feedback"]) * float64(tweets) / float64(len(events))},
		{"store.append", mean(st.total["store.append"])},
		{"reach.insert_edges", mean(st.total["reach.insert_edges"]) * float64(follows) / float64(len(events))},
		{"ingest.apply self", mean(st.self["ingest.apply"])},
	})
	return nil
}
