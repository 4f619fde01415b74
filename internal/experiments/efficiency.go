package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"microlink/internal/graph"
	"microlink/internal/kb"
	"microlink/internal/reach"
	"microlink/internal/synth"
)

func categoryAt(i int) kb.Category { return kb.Category(i) }

func scaleGraphParams(sc GraphScale) synth.GraphParams {
	mf := sc.MeanFollows
	if mf <= 0 {
		mf = 10
	}
	return synth.GraphParams{Seed: 99, Users: sc.Users, MeanFollows: mf}
}

// GraphScale names one synthetic graph size in the D90…Twitter family of
// Table 5 / Fig. 5(b).
type GraphScale struct {
	Label string
	Users int
	// MeanFollows sets the average out-degree (default 10).
	MeanFollows int
	// ClosureFeasible marks scales where the transitive closure is still
	// buildable; beyond it Table 5 prints "-" exactly like the paper.
	ClosureFeasible bool
	// NaiveBudget bounds the naive-construction measurement (Fig. 5(b));
	// the result is extrapolated beyond it, mirroring the paper's "we
	// omit results that cannot finish within one day".
	NaiveBudget time.Duration
}

// DefaultScales mirrors the relative ladder of Table 5's datasets. The
// absolute sizes are scaled down to laptop hardware; the structural story
// (closure dies first, 2-hop keeps going) is preserved.
func DefaultScales() []GraphScale {
	return []GraphScale{
		{Label: "D90", Users: 1_000, ClosureFeasible: true, NaiveBudget: 3 * time.Second},
		{Label: "D70", Users: 2_000, ClosureFeasible: true, NaiveBudget: 3 * time.Second},
		{Label: "D50", Users: 4_000, ClosureFeasible: true, NaiveBudget: 3 * time.Second},
		{Label: "D30", Users: 8_000, ClosureFeasible: true, NaiveBudget: 3 * time.Second},
		{Label: "D10", Users: 16_000, ClosureFeasible: true, NaiveBudget: 3 * time.Second},
		{Label: "D", Users: 32_000, ClosureFeasible: false, NaiveBudget: 3 * time.Second},
		{Label: "Twitter", Users: 48_000, ClosureFeasible: false, NaiveBudget: 3 * time.Second},
	}
}

// Fig5bRow compares naive vs incremental transitive-closure construction.
type Fig5bRow struct {
	Label       string
	Users       int
	Naive       time.Duration // extrapolated when over budget
	Incremental time.Duration
}

// Fig5b measures pre-computation time for the weighted reachability
// matrix: the naive per-pair BFS (extrapolated once it exceeds the
// per-scale budget) versus Algorithm 1.
func Fig5b(scales []GraphScale, maxHops int) []Fig5bRow {
	var rows []Fig5bRow
	for _, sc := range scales {
		if !sc.ClosureFeasible {
			continue
		}
		g := synth.GenerateGraph(scaleGraphParams(sc))
		_, naive := reach.NaiveClosureTime(g, maxHops, sc.NaiveBudget)
		tc := reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: maxHops})
		rows = append(rows, Fig5bRow{
			Label:       sc.Label,
			Users:       sc.Users,
			Naive:       naive,
			Incremental: tc.BuildStats().BuildTime,
		})
	}
	return rows
}

// Table5Row is one dataset row of Table 5: graph statistics plus indexing
// time, index size and query time for both reachability substrates.
// Closure fields are zero when the closure is infeasible at that scale
// (printed as "-").
type Table5Row struct {
	Label     string
	Nodes     int
	Edges     int
	AvgDegree float64
	MaxDegree int

	ClosureBuild time.Duration
	TwoHopBuild  time.Duration
	ClosureBytes int64
	TwoHopBytes  int64
	ClosureQuery time.Duration // average over the query batch
	TwoHopQuery  time.Duration
}

// Table5 builds both indexes per scale and measures average query latency
// over nQueries random source/target pairs (the paper uses 10⁶).
func Table5(scales []GraphScale, maxHops, nQueries int) []Table5Row {
	var rows []Table5Row
	for _, sc := range scales {
		g := synth.GenerateGraph(scaleGraphParams(sc))
		st := g.Stats()
		row := Table5Row{
			Label:     sc.Label,
			Nodes:     st.Nodes,
			Edges:     st.Edges,
			AvgDegree: st.AvgDegree,
			MaxDegree: st.MaxDegree,
		}
		th := reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: maxHops})
		row.TwoHopBuild = th.BuildStats().BuildTime
		row.TwoHopBytes = th.SizeBytes()
		runtime.GC() // the build's garbage must not be collected inside the timed queries
		row.TwoHopQuery = measureQueries(th, g.NumNodes(), nQueries)
		if sc.ClosureFeasible {
			tc := reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: maxHops})
			row.ClosureBuild = tc.BuildStats().BuildTime
			row.ClosureBytes = tc.SizeBytes()
			runtime.GC()
			row.ClosureQuery = measureQueries(tc, g.NumNodes(), nQueries)
		}
		rows = append(rows, row)
	}
	return rows
}

// TaxonomyRow compares one reachability substrate of the paper's §2
// taxonomy on the same graph: online search (GRAIL-style pruning),
// transitive closure, and 2-hop labeling, plus the unindexed naive BFS.
type TaxonomyRow struct {
	Substrate string
	Build     time.Duration
	Bytes     int64
	Query     time.Duration
}

// Taxonomy builds all four substrates over one graph and measures average
// query time over nQueries random pairs — the quantitative version of the
// paper's related-work argument for why it picks the indexed substrates.
func Taxonomy(users, maxHops, nQueries int) []TaxonomyRow {
	g := synth.GenerateGraph(synth.GraphParams{Seed: 99, Users: users, MeanFollows: 10})
	build := []struct {
		name string
		mk   func() reach.Index
	}{
		{"naive BFS", func() reach.Index { return reach.NewNaive(g, maxHops) }},
		{"online search (GRAIL)", func() reach.Index { return reach.NewPrunedSearch(g, reach.PrunedOptions{MaxHops: maxHops}) }},
		{"transitive closure", func() reach.Index {
			return reach.BuildTransitiveClosure(g, reach.ClosureOptions{MaxHops: maxHops})
		}},
		{"2-hop cover", func() reach.Index { return reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: maxHops}) }},
	}
	var rows []TaxonomyRow
	for _, b := range build {
		start := time.Now()
		idx := b.mk()
		elapsed := time.Since(start)
		rows = append(rows, TaxonomyRow{
			Substrate: b.name,
			Build:     elapsed,
			Bytes:     idx.SizeBytes(),
			Query:     measureQueries(idx, g.NumNodes(), nQueries),
		})
	}
	return rows
}

// measureQueries mirrors §5.2.2's protocol: sample 1000 sources and 1000
// terminals, time the cross product (capped at n).
func measureQueries(idx reach.Index, nodes, n int) time.Duration {
	r := rand.New(rand.NewSource(7))
	srcs := make([]graph.NodeID, 1000)
	dsts := make([]graph.NodeID, 1000)
	for i := range srcs {
		srcs[i] = graph.NodeID(r.Intn(nodes))
		dsts[i] = graph.NodeID(r.Intn(nodes))
	}
	start := time.Now()
	done := 0
	for i := 0; done < n; i++ {
		s := srcs[i%1000]
		for j := 0; j < 1000 && done < n; j++ {
			idx.R(s, dsts[j])
			done++
		}
	}
	return time.Since(start) / time.Duration(n)
}
