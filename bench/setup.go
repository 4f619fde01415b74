package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"microlink"
	"microlink/internal/candidate"
	"microlink/internal/httpapi"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/synth"
)

// scale sizes the world and the fixed-count parts of a run. The full
// scale is the one every recorded number refers to; quick exists so the
// smoke test can drive every code path in seconds.
type scale struct {
	quick        bool
	world        microlink.WorldParams
	accuracySet  int // test tweets scored for link_accuracy
	replay       int // requests in a traced replay
	batchReplay  int // batches in a traced replay
	prefill      int // restart: events fed before the measured phase
	directEvents int // firehose: events applied step by step in the traced run
}

func fullScale() scale {
	return scale{
		world:       microlink.WorldParams{Seed: worldSeed, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60},
		accuracySet: 600, replay: 2000, batchReplay: 200, prefill: 2000, directEvents: 300,
	}
}

func quickScale() scale {
	return scale{
		quick:       true,
		world:       microlink.WorldParams{Seed: worldSeed, Users: 300, Topics: 6, EntitiesPerTopic: 10, Days: 20},
		accuracySet: 100, replay: 250, batchReplay: 25, prefill: 120, directEvents: 60,
	}
}

// Fixed traffic shape (see README for why each value is what it is).
const (
	linkRate       = 400.0 // link-single open loop, req/s over two connections
	mixedLinkRate  = 200.0 // firehose-mixed phase A, req/s on connection 2
	mixedEventRate = 100.0 // firehose-mixed phase A, events/s on connection 1
	followFraction = 0.25
	batchSize      = 64
	batchSurfaces  = 8
	batchNows      = 4
	clients        = 2 // connections and generator goroutines, never more
	setupRepeats   = 2
	checkEvery     = 50

	// Slice lengths steadyRate medians over: long enough that one
	// completion more or less in a slice moves the rate by about 1 %.
	linkSlice  = 250 * time.Millisecond
	batchSlice = 500 * time.Millisecond
	eventSlice = 500 * time.Millisecond

	// worldSeed fixes the world for every run; --seed varies the stream
	// and the requests drawn over it. Worlds of different seeds differ in
	// what one request costs (cluster sizes under recency, arena size
	// under restart) by more than any bound: across ten world seeds
	// link-single's closed-loop rate spanned 1744–3047 req/s.
	worldSeed = 42
)

// bed is one system under test: world, linking stack, and the HTTP API
// mounted on a real loopback listener.
type bed struct {
	w    *microlink.World
	sys  *microlink.System
	api  *httpapi.Server
	srv  *http.Server
	base string
	done chan error // the serve goroutine's verdict

	surfaces []string // ambiguous surface forms, sorted: the mention pool
	now0     int64
}

// buildTimes are the set-up steps a traced run times one by one.
type buildTimes struct {
	generate, candIndex, propNet, reachTotal, twoHop time.Duration
}

// setUp generates the world from the seed, builds the linkd
// `-reach streaming -ingest` stack over it and starts serving. With bt
// non-nil the expensive steps are additionally timed through their own
// public constructors (the reach substrate is then built here and handed
// to Build, which does exactly the same work either way).
func setUp(sc scale, bt *buildTimes) (*bed, error) {
	opts := microlink.Options{Reach: microlink.ReachStreaming, TruthComplement: true}
	t := time.Now()
	w := microlink.Generate(sc.world)
	if bt != nil {
		bt.generate = time.Since(t)
		t = time.Now()
		candidate.NewIndex(w.KB, candidate.Options{})
		bt.candIndex = time.Since(t)
		t = time.Now()
		recency.BuildPropNet(w.KB, 0.6)
		bt.propNet = time.Since(t)
		t = time.Now()
		st := reach.NewStreaming(w.Graph, reach.TwoHopOptions{})
		bt.reachTotal = time.Since(t)
		bt.twoHop = st.BuildStats().BuildTime
		opts.PrebuiltReach = st
	}
	sys := microlink.Build(w, opts)
	var surfaces []string
	w.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if len(cs) >= 2 {
			surfaces = append(surfaces, form)
		}
	})
	sort.Strings(surfaces)
	if len(surfaces) < batchSurfaces {
		return nil, fmt.Errorf("world has %d ambiguous surfaces, need %d", len(surfaces), batchSurfaces)
	}
	return serve(sys, surfaces, w.Horizon()+3600)
}

// serve mounts the HTTP API over sys on a loopback listener.
func serve(sys *microlink.System, surfaces []string, now0 int64) (*bed, error) {
	b := &bed{w: sys.World, sys: sys, surfaces: surfaces, now0: now0, done: make(chan error, 1)}
	// Request logging is silenced: linkd's default logger would write one
	// stderr line per request, which measures the terminal.
	b.api = httpapi.New(sys, httpapi.WithLogger(func(string, ...any) {}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: b.api, ReadHeaderTimeout: 5 * time.Second}
	go func() { b.done <- b.srv.Serve(ln) }()
	return b, nil
}

// close stops the listener and waits for the serve goroutine.
func (b *bed) close() error {
	err := b.srv.Close()
	if serr := <-b.done; serr != http.ErrServerClosed {
		err = errors.Join(err, serr)
	}
	return err
}

// setUpMeasured sets the system up setupRepeats times, keeping the last,
// and returns the median set-up time and the live heap behind it.
func setUpMeasured(sc scale) (*bed, float64, float64, error) {
	var secs []float64
	var b *bed
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, 0, err
			}
			b = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if b, err = setUp(sc, nil); err != nil {
			return nil, 0, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return b, median2(secs), heapMB(), nil
}

// median2 is the median with the middle pair averaged, so two set-ups
// both count.
func median2(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// accuracy is the share of ground-truth mentions the linker gets right on
// a fixed prefix of the held-out test set. It costs no HTTP and runs
// before any phase mutates the system.
func (b *bed) accuracy(sc scale) float64 {
	ts := b.sys.TestSet.All()
	if len(ts) > sc.accuracySet {
		ts = ts[:sc.accuracySet]
	}
	return microlink.Evaluate(b.sys.Linker, ts).MentionAccuracy()
}

// linkReq is one pre-generated GET /v1/link.
type linkReq struct {
	user    microlink.UserID
	surface string
	now     int64
	path    string
}

// linkRequests draws n requests: users uniform over the whole graph,
// mentions uniform over the pool, and `now` one second later per request,
// so every request is a distinct (user, surface, now) — nothing upstream
// of the reach arena can answer from memory.
func (b *bed) linkRequests(seed int64, n int) []linkReq {
	r := rand.New(rand.NewSource(seed))
	out := make([]linkReq, n)
	users := b.w.Graph.NumNodes()
	for i := range out {
		q := linkReq{
			user:    microlink.UserID(r.Intn(users)),
			surface: b.surfaces[r.Intn(len(b.surfaces))],
			now:     b.now0 + int64(i),
		}
		q.path = "/v1/link?user=" + strconv.Itoa(int(q.user)) +
			"&mention=" + url.QueryEscape(q.surface) + "&now=" + strconv.FormatInt(q.now, 10)
		out[i] = q
	}
	return out
}

// batchReq is one pre-generated POST /v1/link/batch.
type batchReq struct {
	queries []microlink.MentionQuery
	body    []byte
	groups  int // distinct (surface, now) pairs: one recency call each
}

// hotSurfaces are the pool's surfaces whose candidates carry the most
// postings in the complemented KB — the mentions a real batch is full of.
func (b *bed) hotSurfaces(k int) []string {
	type hot struct {
		form string
		n    int
	}
	hs := make([]hot, len(b.surfaces))
	for i, s := range b.surfaces {
		hs[i].form = s
		for _, e := range b.w.KB.Candidates(s) {
			hs[i].n += b.sys.CKB.Count(e)
		}
	}
	sort.SliceStable(hs, func(i, j int) bool { return hs[i].n > hs[j].n })
	out := make([]string, k)
	for i := range out {
		out[i] = hs[i].form
	}
	return out
}

// batchRequests draws n batches of batchSize queries: users Zipf(1.1) so
// a few users dominate (their interests stay cached), mentions from the
// hottest surfaces, and batchNows distinct timestamps per batch so the
// (surface, now) groups share recency. Timestamps stay within a day of
// the horizon: further out the burst windows empty and recency gets
// cheaper as the run goes on.
func (b *bed) batchRequests(seed int64, n int) ([]batchReq, error) {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(b.w.Graph.NumNodes()-1))
	hot := b.hotSurfaces(batchSurfaces)
	out := make([]batchReq, n)
	for i := range out {
		var body httpapi.BatchRequest
		seen := map[[2]int64]struct{}{}
		for j := 0; j < batchSize; j++ {
			si, ni := r.Intn(len(hot)), r.Intn(batchNows)
			now := b.now0 + int64(i%24)*3600 + int64(ni)*600
			u := int32(zipf.Uint64())
			out[i].queries = append(out[i].queries, microlink.MentionQuery{User: u, Now: now, Surface: hot[si]})
			body.Queries = append(body.Queries, httpapi.BatchQuery{User: u, Now: &now, Mention: hot[si]})
			seen[[2]int64{int64(si), int64(ni)}] = struct{}{}
		}
		out[i].groups = len(seen)
		var err error
		if out[i].body, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// eventReq is one pre-generated firehose POST.
type eventReq struct {
	ev   synth.StreamEvent
	path string
	body []byte
}

// streamRequests renders the synthetic firehose as ingest requests.
func (b *bed) streamRequests(seed int64, n int) ([]eventReq, error) {
	stream := synth.GenerateStream(b.w, synth.StreamParams{Seed: seed, Events: n, FollowFraction: followFraction})
	out := make([]eventReq, len(stream))
	for i, ev := range stream {
		out[i].ev = ev
		var err error
		if ev.Tweet != nil {
			out[i].path = "/v1/ingest/tweet"
			out[i].body, err = json.Marshal(httpapi.IngestTweetRequest{
				ID: ev.Tweet.ID, User: ev.Tweet.User, Time: &ev.Tweet.Time, Text: ev.Tweet.Text})
		} else {
			out[i].path = "/v1/ingest/follow"
			out[i].body, err = json.Marshal(httpapi.IngestFollowRequest{Follower: ev.U, Followee: ev.V})
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scratchDir makes a fresh directory under the harness's own output
// directory — never the system temp dir, the run stays inside its
// checkout.
func scratchDir(outDir, pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, pattern)
}

// removeAll deletes a scratch directory. A leftover only wastes disk under
// the ignored output directory, so a failure is reported, not fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}
