package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"microlink/internal/httpapi"
)

// linkBatch is 64 mentions per request from two closed-loop clients:
// Zipf users and hot surfaces, so recency is paid once per
// (surface, now) group and most interests come from core's cache. What
// is left is influence × reach on the misses, the batch worker pool and
// the JSON codec — the opposite end of the read path from link-single.
func (r *run) linkBatch() error {
	const maxBatchRate = 700 // batches/s to pre-generate; two clients complete about 500

	b := r.bed
	// Three warm-ups' worth: the hot users' interests have to reach the
	// cache before the rate levels off, which takes about 2 s of batches.
	warm, d := 3*r.warmUp(), r.dur(1)
	nWarm := int(maxBatchRate * warm.Seconds())
	nMain := int(maxBatchRate * d.Seconds())
	nHash := 20 * r.seconds // the head of the phase every run completes
	reqs, err := b.batchRequests(r.seed+2, nWarm+nMain+r.sc.batchReplay)
	if err != nil {
		return err
	}
	conns := [clients]*conn{newConn(b.base), newConn(b.base)}
	defer conns[0].close()
	defer conns[1].close()
	post := func(c *conn, q batchReq) ([]byte, bool) {
		status, body := c.do(http.MethodPost, "/v1/link/batch", q.body)
		return body, status == http.StatusOK
	}

	warmS, _ := closedLoop(warm, clients, func(lane, i int) bool {
		_, ok := post(conns[lane], reqs[i%nWarm])
		return ok
	})
	okW, failW, _, _ := tally(warmS)
	r.rec.addPhase("warm-up", warm.Seconds(), okW, failW, 0)

	hash := newAnswerHash(nHash)
	kept := make([][]byte, nHash)
	samples, wall := closedLoop(d, clients, func(lane, i int) bool {
		body, ok := post(conns[lane], reqs[nWarm+i%nMain])
		if ok && i < nHash {
			hash.put(i, body)
			if i%10 == 0 {
				kept[i] = body
			}
		}
		return ok
	})
	okN, failN, lat, _ := tally(samples)
	r.rec.addPhase("closed-loop", wall.Seconds(), okN, failN, len(lat))
	ld := summarize(lat)
	r.rec.Dists["batch.closed_loop_ms"] = ld
	r.rec.e2e("latency_p50_ms", ld.P50, "ms")
	r.rec.e2e("throughput_per_s", steadyRate(samples, wall, batchSlice, batchSize), "1/s")

	r.rec.AnswersSHA256, r.rec.AnswersHashed = hash.sum(), min(nHash, okN+failN)
	r.rec.check("answers_hashed_complete", okN+failN >= nHash, "only %d of the %d hashed batches were issued", okN+failN, nHash)
	bad, checked := 0, 0
	for i, body := range kept {
		if body == nil {
			continue
		}
		var got httpapi.BatchResponse
		if json.Unmarshal(body, &got) != nil || len(got.Results) != batchSize {
			bad++
			continue
		}
		for j, q := range reqs[nWarm+i].queries {
			checked++
			if !sameRanking(got.Results[j].Candidates, b.sys.Linker.ScoreCandidates(q.User, q.Now, q.Surface)) {
				bad++
			}
		}
	}
	r.rec.check("http_equals_in_process", bad == 0 && checked > 0, "%d of %d sampled answers differ", bad, checked)

	if !r.traced {
		return nil
	}
	r.rec.layer("httpapi.batch_p99_ms", ld.at(99), "ms")
	return r.traceBatch(conns[0], reqs[nWarm+nMain:], ld.Mean*1e3)
}

// traceBatch replays batches closed-loop on one goroutine, one level per
// batch (i mod 4): socket without a span, socket with one, ServeHTTP into
// a recorder, Linker.LinkBatch.
func (r *run) traceBatch(c *conn, reqs []batchReq, e2eMeanUS float64) error {
	b := r.bed
	tr := newTracer()
	var untraced []float64
	var hits, misses uint64
	var groups float64
	for i, q := range reqs {
		groups += float64(q.groups)
		switch i % 4 {
		case 0:
			t := time.Now()
			c.do(http.MethodPost, "/v1/link/batch", q.body)
			untraced = append(untraced, us(time.Since(t)))
		case 1:
			tr.timed("client.batch", i, -1, func() { c.do(http.MethodPost, "/v1/link/batch", q.body) })
		case 2:
			rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/link/batch", bytes.NewReader(q.body))
			tr.timed("httpapi.serve", i, -1, func() { b.api.ServeHTTP(rec, req) })
		case 3:
			h0, m0 := b.sys.Linker.CacheStats()
			tr.timed("core.link_batch", i, -1, func() { b.sys.Linker.LinkBatch(context.Background(), q.queries) })
			h1, m1 := b.sys.Linker.CacheStats()
			hits, misses = hits+h1-h0, misses+m1-m0
		}
	}
	if err := tr.write(r.outDir, r.rec.Workload); err != nil {
		return err
	}
	st := tr.stats()
	client, serve, link := mean(st.total["client.batch"]), mean(st.total["httpapi.serve"]), mean(st.total["core.link_batch"])
	r.rec.layerDist("httpapi.serve_us", st.total["httpapi.serve"], "us")
	r.rec.layer("httpapi.socket_us", client-serve, "us")
	r.rec.layer("httpapi.self_us", serve-link, "us")
	r.rec.layer("httpapi.batch_codec_us_per_mention", (serve-link)/batchSize, "us")
	r.rec.layer("core.link_batch_us_per_mention", link/batchSize, "us")
	if hits+misses > 0 {
		r.rec.layer("core.cache_hit_share", float64(hits)/float64(hits+misses), "share")
	}
	r.rec.layer("recency.groups_per_batch", groups/float64(len(reqs)), "count")
	r.rec.layer("trace.overhead_share", (client-mean(untraced))/mean(untraced), "share")
	r.rec.layer("trace.unaccounted_us", reconcile("two-client mean batch latency", e2eMeanUS, "us", []part{
		{"httpapi.socket", client - serve},
		{"httpapi.self (codec)", serve - link},
		{"core.link_batch", link},
	}), "us")
	return nil
}
