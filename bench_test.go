// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment id; see DESIGN.md §4 for the index and cmd/linkbench for
// the row-printing harness). Accuracy experiments report their headline
// metric via b.ReportMetric, so `go test -bench=.` doubles as a compact
// reproduction log.
package microlink_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"microlink"
	"microlink/internal/eval"
	"microlink/internal/experiments"
	"microlink/internal/graph"
	"microlink/internal/influence"
	"microlink/internal/reach"
	"microlink/internal/recency"
	"microlink/internal/synth"
	"microlink/internal/textutil"
)

// benchWorld caches the default accuracy world and its systems across
// benchmarks: generation and index construction dominate otherwise.
var (
	benchOnce sync.Once
	bw        *microlink.World
	bsys      *microlink.System
)

func benchSetup(b *testing.B) (*microlink.World, *microlink.System) {
	b.Helper()
	benchOnce.Do(func() {
		bw = microlink.Generate(experiments.DefaultWorldParams())
		bsys = microlink.Build(bw, microlink.Options{})
	})
	return bw, bsys
}

// reportAccuracy runs one evaluation pass per iteration and reports the
// mention/tweet accuracies as benchmark metrics.
func reportAccuracy(b *testing.B, l eval.Linker, ts []microlink.Tweet) {
	b.Helper()
	var acc eval.Accuracy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = eval.Evaluate(l, ts)
	}
	b.ReportMetric(acc.MentionAccuracy(), "mention-acc")
	b.ReportMetric(acc.TweetAccuracy(), "tweet-acc")
}

// --- Fig 4(a): accuracy vs state of the art -----------------------------

func BenchmarkFig4aOurs(b *testing.B) {
	_, sys := benchSetup(b)
	reportAccuracy(b, sys.Linker, sys.TestSet.All())
}

func BenchmarkFig4aCollective(b *testing.B) {
	_, sys := benchSetup(b)
	reportAccuracy(b, sys.Collective(sys.TestSet), sys.TestSet.All())
}

func BenchmarkFig4aOnTheFly(b *testing.B) {
	_, sys := benchSetup(b)
	reportAccuracy(b, sys.OnTheFly(), sys.TestSet.All())
}

// --- Fig 4(b): accuracy vs complementation corpus -----------------------

func BenchmarkFig4bDatasets(b *testing.B) {
	w, _ := benchSetup(b)
	for _, theta := range []int{90, 50, 10} {
		theta := theta
		b.Run("D"+itoa(theta), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{ComplementTheta: theta})
			reportAccuracy(b, sys.Linker, sys.TestSet.All())
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

// --- Fig 4(c): influence estimators --------------------------------------

func BenchmarkFig4cInfluence(b *testing.B) {
	w, _ := benchSetup(b)
	for _, m := range []influence.Method{influence.TFIDF, influence.Entropy} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{InfluenceMethod: m})
			reportAccuracy(b, sys.Linker, sys.TestSet.All())
		})
	}
}

// --- Fig 4(d): recency propagation ----------------------------------------

func BenchmarkFig4dPropagation(b *testing.B) {
	w, _ := benchSetup(b)
	b.Run("off", func(b *testing.B) {
		sys := microlink.Build(w, microlink.Options{Recency: recency.Options{NoPropagation: true}})
		reportAccuracy(b, sys.Linker, sys.TestSet.All())
	})
	b.Run("on", func(b *testing.B) {
		sys := microlink.Build(w, microlink.Options{})
		reportAccuracy(b, sys.Linker, sys.TestSet.All())
	})
}

// --- Table 4: feature ablation --------------------------------------------

func BenchmarkTable4Ablation(b *testing.B) {
	w, _ := benchSetup(b)
	cases := []struct {
		name string
		cfg  microlink.LinkerConfig
	}{
		{"interest", microlink.LinkerConfig{WInterest: 1}},
		{"recency", microlink.LinkerConfig{WRecency: 1}},
		{"popularity", microlink.LinkerConfig{WPopularity: 1}},
		{"all", microlink.LinkerConfig{}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{Linker: c.cfg})
			reportAccuracy(b, sys.Linker, sys.TestSet.All())
		})
	}
}

// --- Fig 5(a): linking latency ---------------------------------------------

// linkStream times LinkTweet per operation over the test stream.
func linkStream(b *testing.B, l eval.Linker, ts []microlink.Tweet) {
	b.Helper()
	mentions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw := &ts[i%len(ts)]
		l.LinkTweet(tw)
		mentions += len(tw.Mentions)
	}
	b.ReportMetric(float64(mentions)/float64(b.N), "mentions/tweet")
}

func BenchmarkFig5aLinkTimeOurs(b *testing.B) {
	_, sys := benchSetup(b)
	linkStream(b, sys.Linker, sys.TestSet.All())
}

func BenchmarkFig5aLinkTimeCollective(b *testing.B) {
	_, sys := benchSetup(b)
	linkStream(b, sys.Collective(sys.TestSet), sys.TestSet.All())
}

func BenchmarkFig5aLinkTimeOnTheFly(b *testing.B) {
	_, sys := benchSetup(b)
	linkStream(b, sys.OnTheFly(), sys.TestSet.All())
}

// --- Fig 5(b): closure construction -----------------------------------------

func fig5bGraph() *graph.Graph {
	return synth.GenerateGraph(synth.GraphParams{Seed: 99, Users: 400, MeanFollows: 10})
}

func BenchmarkFig5bNaiveConstruction(b *testing.B) {
	g := fig5bGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach.NaiveClosureTime(g, 4, 0)
	}
}

func BenchmarkFig5bIncrementalConstruction(b *testing.B) {
	g := fig5bGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: 4})
	}
}

// --- Fig 5(c): influential-user truncation -----------------------------------

func BenchmarkFig5cInfluential(b *testing.B) {
	w, _ := benchSetup(b)
	for _, k := range []int{1, 5, 20} {
		k := k
		b.Run("top"+itoa(k), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{Linker: microlink.LinkerConfig{TopInfluential: k}})
			linkStream(b, sys.Linker, sys.TestSet.All())
		})
	}
	b.Run("whole-community", func(b *testing.B) {
		sys := microlink.Build(w, microlink.Options{Linker: microlink.LinkerConfig{WholeCommunity: true}})
		linkStream(b, sys.Linker, sys.TestSet.All())
	})
}

// --- Fig 5(d): scalability with KB size ----------------------------------------

func BenchmarkFig5dScalability(b *testing.B) {
	w, _ := benchSetup(b)
	for _, theta := range []int{90, 50, 10} {
		theta := theta
		b.Run("D"+itoa(theta), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{ComplementTheta: theta})
			linkStream(b, sys.Linker, sys.TestSet.All())
		})
	}
}

// --- Table 5: reachability substrates ---------------------------------------------

func table5Graph() *graph.Graph {
	return synth.GenerateGraph(synth.GraphParams{Seed: 99, Users: 1500, MeanFollows: 10})
}

func BenchmarkTable5ClosureBuild(b *testing.B) {
	g := table5Graph()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		tc := reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: 4})
		size = tc.SizeBytes()
	}
	b.ReportMetric(float64(size)/(1<<20), "index-MB")
}

func BenchmarkTable5TwoHopBuild(b *testing.B) {
	g := table5Graph()
	b.ResetTimer()
	var size int64
	for i := 0; i < b.N; i++ {
		th := reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: 4})
		size = th.SizeBytes()
	}
	b.ReportMetric(float64(size)/(1<<20), "index-MB")
}

func queryBench(b *testing.B, idx reach.Index, n int) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	srcs := make([]graph.NodeID, 1024)
	dsts := make([]graph.NodeID, 1024)
	for i := range srcs {
		srcs[i] = graph.NodeID(r.Intn(n))
		dsts[i] = graph.NodeID(r.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.R(srcs[i%1024], dsts[(i/1024+i)%1024])
	}
}

func BenchmarkTable5ClosureQuery(b *testing.B) {
	g := table5Graph()
	tc := reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: 4})
	queryBench(b, tc, g.NumNodes())
}

func BenchmarkTable5TwoHopQuery(b *testing.B) {
	g := table5Graph()
	th := reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: 4})
	queryBench(b, th, g.NumNodes())
}

func BenchmarkTable5NaiveQuery(b *testing.B) {
	g := table5Graph()
	queryBench(b, reach.NewNaive(g, 4), g.NumNodes())
}

// Online search with GRAIL-style interval pruning — §2's first category,
// which the paper dismisses for real-time use: queries cost a BFS whenever
// the pair is not refuted, orders of magnitude above the indexed
// substrates. The pruning only pays on unreachable pairs.
func BenchmarkTable5OnlineSearchQuery(b *testing.B) {
	g := table5Graph()
	queryBench(b, reach.NewPrunedSearch(g, reach.PrunedOptions{MaxHops: 4}), g.NumNodes())
}

// --- Fig 6(a,b): Weibo generalisability ----------------------------------------------

var (
	weiboOnce sync.Once
	weiboSys  *microlink.System
)

func weiboSetup(b *testing.B) *microlink.System {
	b.Helper()
	weiboOnce.Do(func() {
		weiboSys = microlink.Build(microlink.Generate(experiments.WeiboWorldParams()), microlink.Options{})
	})
	return weiboSys
}

func BenchmarkFig6abWeiboAccuracy(b *testing.B) {
	sys := weiboSetup(b)
	reportAccuracy(b, sys.Linker, sys.TestSet.All())
}

func BenchmarkFig6abWeiboLinkTime(b *testing.B) {
	sys := weiboSetup(b)
	linkStream(b, sys.Linker, sys.TestSet.All())
}

// --- Fig 6(c): tweet length -------------------------------------------------------------

func BenchmarkFig6cTweetLength(b *testing.B) {
	_, sys := benchSetup(b)
	test := sys.TestSet.All()
	var buckets []eval.Accuracy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets = eval.ByTweetLength(sys.Linker, test, 4)
	}
	for l, a := range buckets {
		b.ReportMetric(a.MentionAccuracy(), "len"+itoa(l+1)+"-acc")
	}
}

// --- Fig 6(d): weight sensitivity ----------------------------------------------------------

func BenchmarkFig6dSensitivity(b *testing.B) {
	w, _ := benchSetup(b)
	for _, alpha := range []float64{0.1, 0.6, 0.9} {
		alpha := alpha
		b.Run("alpha"+itoa(int(alpha*10)), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{Linker: microlink.LinkerConfig{
				WInterest: alpha, WRecency: (1 - alpha) * 0.75, WPopularity: (1 - alpha) * 0.25,
			}})
			reportAccuracy(b, sys.Linker, sys.TestSet.All())
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §5) -------------

// Degree-descending landmark order vs arbitrary order: the PLL insight that
// hubs first shrink labels and build time.
func BenchmarkAblationTwoHopOrdering(b *testing.B) {
	g := synth.GenerateGraph(synth.GraphParams{Seed: 99, Users: 800, MeanFollows: 10})
	b.Run("degree", func(b *testing.B) {
		var entries int64
		for i := 0; i < b.N; i++ {
			entries = reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: 4}).BuildStats().Entries
		}
		b.ReportMetric(float64(entries), "labels")
	})
	b.Run("random", func(b *testing.B) {
		var entries int64
		for i := 0; i < b.N; i++ {
			entries = reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: 4, RandomOrder: true}).BuildStats().Entries
		}
		b.ReportMetric(float64(entries), "labels")
	})
}

// Banded vs full Levenshtein in the fuzzy index verification step.
func BenchmarkAblationEditDistance(b *testing.B) {
	words := []string{"michael jordan", "micheal jordan", "chicago bulls", "chicgao bulls", "jordan", "jodran"}
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			textutil.WithinEditDistance(words[i%3*2], words[i%3*2+1], 2)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = textutil.Levenshtein(words[i%3*2], words[i%3*2+1]) <= 2
		}
	})
}

// θ₂ threshold of the propagation network: lower thresholds admit more
// edges and bigger clusters, slowing propagation.
func BenchmarkAblationTheta2(b *testing.B) {
	w, _ := benchSetup(b)
	for _, theta2 := range []float64{0.4, 0.6, 0.8} {
		theta2 := theta2
		b.Run("theta"+itoa(int(theta2*10)), func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				net := recency.BuildPropNet(w.KB, theta2)
				edges = net.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// Influential-user caching: the offline knowledge-acquisition trade
// (§3.2.1) vs recomputing per query.
func BenchmarkAblationInfluenceCache(b *testing.B) {
	_, sys := benchSetup(b)
	// Find a busy entity and its candidate set.
	var surface string
	var cands []microlink.EntityID
	sys.World.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if surface == "" && len(cs) >= 3 {
			surface, cands = form, cs
		}
	})
	if surface == "" {
		b.Skip("no ambiguous surface")
	}
	est := sys.Influence
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.TopInfluential(cands[0], cands, 5)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.Invalidate(cands[0])
			est.TopInfluential(cands[0], cands, 5)
		}
	})
}

// S_r (Eq. 9 + Eq. 11) alone on the world shape of the bench/ harness
// (seed 42, 2 000 users; at θ₂ = 0.6 one cluster holds 238 of the 240
// entities): one Scores call per test-set mention, at that mention's time.
func BenchmarkRecencyScores(b *testing.B) {
	w := microlink.Generate(microlink.WorldParams{Seed: 42, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60})
	rec := recency.NewScorer(w.ComplementTruth(w.Store.FilterByActivity(10, 0)),
		recency.BuildPropNet(w.KB, 0.6), recency.Options{}, nil)
	type query struct {
		now   int64
		cands []microlink.EntityID
	}
	var qs []query
	for _, tw := range w.Store.FilterByActivity(1, 9).All() {
		for _, m := range tw.Mentions {
			if cands := w.KB.Candidates(m.Surface); len(cands) > 0 {
				qs = append(qs, query{tw.Time, cands})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		recencySink = rec.Scores(q.now, q.cands)
	}
}

// recencySink keeps BenchmarkRecencyScores' calls from being optimised away.
var recencySink []float64

// λ of Eq. 11: the trade-off between gathered and propagated recency. The
// accuracy surface across λ shows why the propagation term earns its cost
// (λ=1 disables reinforcement entirely).
func BenchmarkAblationLambda(b *testing.B) {
	w, _ := benchSetup(b)
	for _, lambda := range []float64{0.2, 0.5, 0.8, 0.999} {
		lambda := lambda
		b.Run("lambda"+itoa(int(lambda*10)), func(b *testing.B) {
			sys := microlink.Build(w, microlink.Options{Recency: recency.Options{Lambda: lambda}})
			reportAccuracy(b, sys.Linker, sys.TestSet.All())
		})
	}
}

// Fuzzy candidate generation throughput.
func BenchmarkCandidateLookup(b *testing.B) {
	_, sys := benchSetup(b)
	var exact, fuzzy string
	sys.World.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if exact == "" && len(form) >= 6 {
			exact = form
			fuzzy = form[:2] + "x" + form[3:]
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.Candidates.Candidates(exact)
		}
	})
	b.Run("fuzzy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.Candidates.Candidates(fuzzy)
		}
	})
}

// --- Batch pipeline: LinkBatch vs the serial single-mention path ----------

// benchBatchQueries flattens the test set into serving-mode mention
// queries (now = world horizon, as the HTTP API defaults).
func benchBatchQueries(sys *microlink.System, n int) []microlink.MentionQuery {
	now := sys.World.Horizon()
	qs := make([]microlink.MentionQuery, 0, n)
	for _, tw := range sys.TestSet.All() {
		for _, m := range tw.Mentions {
			if len(qs) == n {
				return qs
			}
			qs = append(qs, microlink.MentionQuery{User: tw.User, Now: now, Surface: m.Surface})
		}
	}
	return qs
}

// BenchmarkBatchLink also reports recency cluster propagations (Eq. 11
// runs plus memo hits) per op: every query shares one now, so a batch
// pays one per cluster and the serial loop one per query.
func BenchmarkBatchLink(b *testing.B) {
	_, sys := benchSetup(b)
	qs := benchBatchQueries(sys, 256)
	propagations := func() int64 { return sys.Recency.MemoHits() + sys.Recency.Propagations() }
	b.Run("serial", func(b *testing.B) {
		p0 := propagations()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				sys.Linker.ScoreCandidates(q.User, q.Now, q.Surface)
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
		b.ReportMetric(float64(propagations()-p0)/float64(b.N), "propagations/op")
	})
	b.Run("batch", func(b *testing.B) {
		p0 := propagations()
		for i := 0; i < b.N; i++ {
			sys.Linker.LinkBatch(context.Background(), qs)
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
		b.ReportMetric(float64(propagations()-p0)/float64(b.N), "propagations/op")
	})
}

// NER throughput over realistic tweet text.
func BenchmarkNERExtract(b *testing.B) {
	_, sys := benchSetup(b)
	texts := make([]string, 64)
	all := sys.World.Store.All()
	for i := range texts {
		texts[i] = all[i*37%len(all)].Text
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.NER.Extract(texts[i%len(texts)])
	}
}

// --- Warm restart -----------------------------------------------------------

// openFiles holds a data directory snapshotted once per process from
// the bench world (the world the BENCHMARK.json workloads serve, built
// with the streaming substrate a data directory restores): file name →
// contents, so every BenchmarkOpen run writes it into its own TempDir.
var (
	openOnce  sync.Once
	openFiles map[string][]byte
)

// BenchmarkOpen is the warm restart without the harness around it: each
// iteration opens the bench world's data directory and closes it again.
// Beside ns/op, B/op and allocs/op it reports the reach segment's bytes
// and the mean of the two overlapped load legs (RestartReport.World and
// .Reach); the longer leg bounds the load.
func BenchmarkOpen(b *testing.B) {
	openOnce.Do(func() {
		w := microlink.Generate(microlink.WorldParams{Seed: 42, Users: 2000, Topics: 12, EntitiesPerTopic: 20, Days: 60})
		sys := microlink.Build(w, microlink.Options{Reach: microlink.ReachStreaming, TruthComplement: true})
		dir := b.TempDir()
		if _, err := sys.Snapshot(dir); err != nil {
			b.Fatal(err)
		}
		if err := sys.ClosePersist(); err != nil {
			b.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		openFiles = make(map[string][]byte, len(ents))
		for _, e := range ents {
			if openFiles[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				b.Fatal(err)
			}
		}
	})
	dir := b.TempDir()
	var reachBytes int
	for name, data := range openFiles {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
		if strings.HasSuffix(name, "-reach.bin") {
			reachBytes += len(data)
		}
	}
	var world, arena time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, rep, err := microlink.Open(dir, microlink.Options{})
		if err != nil {
			b.Fatal(err)
		}
		world += rep.World
		arena += rep.Reach
		if err := sys.ClosePersist(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reachBytes), "reach-bytes")
	b.ReportMetric(float64(world.Microseconds())/1e3/float64(b.N), "world-ms")
	b.ReportMetric(float64(arena.Microseconds())/1e3/float64(b.N), "reach-ms")
}
