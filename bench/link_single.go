package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"microlink"
	"microlink/internal/candidate"
	"microlink/internal/httpapi"
)

// linkSingle is one mention per request: an open loop at a fixed rate
// (latency from the due time), then a closed-loop capacity phase. Every
// request is a distinct (user, surface, now), so each pays the whole
// Eq. 1 path and the interest cache misses by construction.
func (r *run) linkSingle() error {
	b := r.bed
	warm, openD, closedD := r.warmUp(), r.dur(0.6), r.dur(0.4)
	nWarm, nOpen := int(linkRate*warm.Seconds()), int(linkRate*openD.Seconds())
	nClosed := int(8000 * closedD.Seconds()) // far above what two clients can complete
	reqs := b.linkRequests(r.seed+2, nWarm+nOpen+nClosed+r.sc.replay)
	conns := [clients]*conn{newConn(b.base), newConn(b.base)}
	defer conns[0].close()
	defer conns[1].close()

	var status5xx atomic.Int64
	hash := newAnswerHash(nOpen)
	kept := make([][]byte, nOpen)
	get := func(lane int, q linkReq) ([]byte, bool) {
		status, body := conns[lane].do(http.MethodGet, q.path, nil)
		if status >= 500 {
			status5xx.Add(1)
		}
		return body, status == http.StatusOK
	}

	// Open loop. The warm-up is the head of the same schedule.
	all := openLoop(linkRate, nWarm+nOpen, clients, func(lane, i int) bool {
		body, ok := get(lane, reqs[i])
		if j := i - nWarm; ok && j >= 0 {
			hash.put(j, body)
			if j%checkEvery == 0 {
				kept[j] = body
			}
		}
		return ok
	})
	okW, failW, _, _ := tally(all[:nWarm])
	r.rec.addPhase("warm-up", warm.Seconds(), okW, failW, 0)
	okN, failN, lat, late := tally(all[nWarm:])
	r.rec.addPhase("open-loop", openD.Seconds(), okN, failN, len(lat))
	open := summarize(lat)
	r.rec.Dists["link.open_loop_ms"] = open
	r.rec.e2e("latency_p50_ms", open.P50, "ms")

	// Capacity: two clients, each sending as soon as its reply arrives.
	closed, wall := closedLoop(closedD, clients, func(lane, i int) bool {
		_, ok := get(lane, reqs[nWarm+nOpen+i%nClosed])
		return ok
	})
	okC, failC, latC, _ := tally(closed)
	r.rec.addPhase("closed-loop", wall.Seconds(), okC, failC, len(latC))
	r.rec.Dists["link.closed_loop_ms"] = summarize(latC)
	r.rec.e2e("throughput_per_s", steadyRate(closed, wall, linkSlice, 1), "1/s")

	r.rec.AnswersSHA256, r.rec.AnswersHashed = hash.sum(), nOpen
	bad, checked := 0, 0
	for j, body := range kept {
		if body == nil {
			continue
		}
		checked++
		q := reqs[nWarm+j]
		var got httpapi.LinkResponse
		if json.Unmarshal(body, &got) != nil ||
			!sameRanking(got.Candidates, b.sys.Linker.ScoreCandidates(q.user, q.now, q.surface)) {
			bad++
		}
	}
	r.rec.check("http_equals_in_process", bad == 0 && checked > 0, "%d of %d sampled answers differ", bad, checked)

	if !r.traced {
		return nil
	}
	lateD := summarize(late)
	r.rec.layer("httpapi.link_p95_ms", open.at(95), "ms")
	r.rec.layer("httpapi.link_p99_ms", open.at(99), "ms")
	r.rec.layer("httpapi.status_5xx", float64(status5xx.Load()), "count")
	r.rec.layer("loadgen.late_p50_ms", lateD.P50, "ms")
	r.rec.layer("loadgen.late_p99_ms", lateD.at(99), "ms")
	return r.traceLink(conns[0], reqs[nWarm+nOpen+nClosed:], open.Mean*1e3)
}

// sameRanking reports whether candidates decoded from an HTTP answer are
// exactly the ranking the in-process linker gives.
func sameRanking(got []httpapi.ScoredEntity, want []microlink.Scored) bool {
	if len(got) != len(want) {
		return false
	}
	for i, c := range got {
		w := want[i]
		if c.Entity != w.Entity || c.Score != w.Score || c.Interest != w.Interest ||
			c.Recency != w.Recency || c.Popularity != w.Popularity {
			return false
		}
	}
	return true
}

// traceLink replays a slice of the link stream closed-loop on one
// goroutine, one level of the decomposition per request (i mod 5), so no
// level finds a memo another level filled:
//
//	0 socket, no span (the untraced reference for trace.overhead_share)
//	1 socket, client-observed span
//	2 Server.ServeHTTP into a recorder
//	3 Linker.ScoreCandidates
//	4 the calls ScoreCandidates makes, one span each
//
// e2eMeanUS is the mean the untraced open loop reported.
func (r *run) traceLink(c *conn, reqs []linkReq, e2eMeanUS float64) error {
	b := r.bed
	tr := newTracer()
	topK := b.sys.Linker.Config().TopInfluential
	var untraced []float64
	var cands, users, queries, mentions int
	memo0 := b.sys.Recency.MemoHits()
	for i, q := range reqs {
		switch i % 5 {
		case 0:
			t := time.Now()
			c.do(http.MethodGet, q.path, nil)
			untraced = append(untraced, us(time.Since(t)))
		case 1:
			tr.timed("client.link", i, -1, func() { c.do(http.MethodGet, q.path, nil) })
		case 2:
			rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, q.path, nil)
			tr.timed("httpapi.serve", i, -1, func() { b.api.ServeHTTP(rec, req) })
		case 3:
			tr.timed("core.score", i, -1, func() { b.sys.Linker.ScoreCandidates(q.user, q.now, q.surface) })
		case 4:
			mentions++
			root := tr.begin("core.children", i, -1)
			var ents []microlink.EntityID
			tr.timed("candidate.lookup", i, root, func() {
				ents = candidate.Entities(b.sys.Candidates.Candidates(q.surface))
			})
			cands += len(ents)
			tr.timed("kb.popularity", i, root, func() {
				for _, e := range ents {
					b.sys.CKB.Count(e)
				}
			})
			tr.timed("recency.scores", i, root, func() { b.sys.Recency.Scores(q.now, ents) })
			infl := make([][]microlink.UserID, len(ents))
			for k, e := range ents {
				tr.timed("influence.topk", i, root, func() { infl[k] = b.sys.Influence.TopInfluential(e, ents, topK) })
				users += len(infl[k])
			}
			tr.timed("reach.queries", i, root, func() {
				for _, vs := range infl {
					for _, v := range vs {
						b.sys.Reach.R(q.user, v)
						queries++
					}
				}
			})
			tr.end(root)
		}
	}
	if err := tr.write(r.outDir, r.rec.Workload); err != nil {
		return err
	}
	if mentions == 0 || cands == 0 || queries == 0 {
		return fmt.Errorf("traced replay of %d requests exercised no reach query", len(reqs))
	}

	st := tr.stats()
	client, serve, score := mean(st.total["client.link"]), mean(st.total["httpapi.serve"]), mean(st.total["core.score"])
	// Per-mention cost of each child: calls per mention × mean call.
	perMention := func(name string) float64 {
		return mean(st.total[name]) * float64(len(st.total[name])) / float64(mentions)
	}
	children := []part{
		{"candidate.lookup", perMention("candidate.lookup")},
		{"kb.popularity", perMention("kb.popularity")},
		{"recency.scores", perMention("recency.scores")},
		{"influence.topk", perMention("influence.topk")},
		{"reach.queries", perMention("reach.queries")},
	}
	var childSum float64
	for _, p := range children {
		childSum += p.v
	}

	r.rec.layerDist("httpapi.serve_us", st.total["httpapi.serve"], "us")
	r.rec.layer("httpapi.self_us", serve-score, "us")
	r.rec.layer("httpapi.socket_us", client-serve, "us")
	r.rec.layerDist("core.score_us", st.total["core.score"], "us")
	r.rec.layer("core.self_us", score-childSum, "us")
	r.rec.layerDist("candidate.lookup_us", st.total["candidate.lookup"], "us")
	r.rec.layer("candidate.cands_per_mention", float64(cands)/float64(mentions), "count")
	r.rec.layerDist("kb.popularity_us", st.total["kb.popularity"], "us")
	r.rec.layerDist("recency.scores_us", st.total["recency.scores"], "us")
	r.rec.layer("recency.memo_hit_share", float64(b.sys.Recency.MemoHits()-memo0)/float64(cands), "share")
	r.rec.layerDist("influence.topk_us", st.total["influence.topk"], "us")
	r.rec.layer("influence.users_per_candidate", float64(users)/float64(cands), "count")
	r.rec.layer("reach.query_ns", perMention("reach.queries")*float64(mentions)/float64(queries)*1e3, "ns")
	r.rec.layer("reach.queries_per_mention", float64(queries)/float64(mentions), "count")
	r.rec.layer("trace.overhead_share", (client-mean(untraced))/mean(untraced), "share")

	parts := append([]part{
		{"httpapi.socket", client - serve},
		{"httpapi.self", serve - score},
		{"core.self", score - childSum},
	}, children...)
	r.rec.layer("trace.unaccounted_us", reconcile("open-loop mean latency", e2eMeanUS, "us", parts), "us")
	return nil
}
