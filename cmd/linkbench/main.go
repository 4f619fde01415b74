// Command linkbench regenerates the paper's tables and figures over
// synthetic worlds and prints them in the same rows/series the paper
// reports. Run `linkbench all` for the full evaluation or a single
// experiment id (fig4a … fig6d, table4, table5, categories). Two extra
// ids measure the reachability substrates themselves: `taxonomy` (the §2
// comparison on one graph) and `index` (serial vs parallel 2-hop
// construction, checked in as BENCH_reach.json). -cpuprofile and
// -memprofile capture pprof profiles of any run. End-to-end serving
// performance — LinkBatch, the ingest firehose, warm restart — is
// measured by the bench/ harness, not here.
//
// Usage:
//
//	linkbench [-seed N] [-users N] [-quick] [-cpuprofile F] [-memprofile F] <experiment|all>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"microlink"
	"microlink/internal/experiments"
)

var (
	seed         = flag.Int64("seed", 42, "world generator seed")
	users        = flag.Int("users", 1500, "number of users in the accuracy world")
	quick        = flag.Bool("quick", false, "smaller scales for the efficiency experiments")
	out          = flag.String("out", "", "also write the experiment's JSON result to this file (index)")
	workersSweep = flag.String("workers-sweep", "", "index: comma-separated worker counts to sweep (one JSON record each), or 'auto' for 1,2,4 on multi-core machines")
	maxWaitFrac  = flag.Float64("max-wait-frac", 0, "index: fail if (merge+barrier wait)/parallel build exceeds this fraction on any multi-worker record (0 disables)")
	cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile   = flag.String("memprofile", "", "write a heap profile to this file")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: linkbench [-seed N] [-users N] [-quick] [-cpuprofile F] [-memprofile F] <experiment|all>")
		fmt.Fprintln(os.Stderr, "experiments: fig4a fig4b fig4c fig4d table4 fig5a fig5b fig5c fig5d table5 fig6ab fig6c fig6d categories taxonomy index")
		os.Exit(2)
	}
	id := flag.Arg(0)

	if err := validateFlags(*users); err != nil {
		fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "linkbench: closing CPU profile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "linkbench: CPU profile written to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "linkbench: heap profile written to %s\n", *memprofile)
		}()
	}

	runners := map[string]func(){
		"fig4a":      fig4a,
		"fig4b":      fig4b,
		"fig4c":      fig4c,
		"fig4d":      fig4d,
		"table4":     table4,
		"fig5a":      fig5a,
		"fig5b":      fig5b,
		"fig5c":      fig5c,
		"fig5d":      fig5d,
		"table5":     table5,
		"fig6ab":     fig6ab,
		"fig6c":      fig6c,
		"fig6d":      fig6d,
		"categories": categories,
		"taxonomy":   taxonomy,
		"index":      index,
	}
	if id == "all" {
		ids := make([]string, 0, len(runners))
		for k := range runners {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		for _, k := range ids {
			runners[k]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[id]
	if !ok {
		fmt.Fprintf(os.Stderr, "linkbench: unknown experiment %q\n", id)
		os.Exit(2)
	}
	run()
}

// validateFlags rejects world sizes no experiment can run against: a
// non-positive -users would generate an empty world and benchmark
// nothing (found while writing the wgcheck corpus — a zero-size pool is
// the same bug class).
func validateFlags(users int) error {
	if users <= 0 {
		return fmt.Errorf("-users must be positive, got %d", users)
	}
	return nil
}

var cachedWorld *microlink.World

func world() *microlink.World {
	if cachedWorld == nil {
		p := experiments.DefaultWorldParams()
		p.Seed = *seed
		p.Users = *users
		banner("generating world (seed=%d users=%d)", p.Seed, p.Users)
		start := time.Now()
		cachedWorld = microlink.Generate(p)
		st := cachedWorld.Store.Stats()
		fmt.Printf("  %d users, %d entities, %d tweets, %d mentions (%.2f/tweet) [%v]\n",
			cachedWorld.Graph.NumNodes(), cachedWorld.KB.NumEntities(),
			st.Tweets, st.Mentions, st.MentionsPerTweet, time.Since(start).Round(time.Millisecond))
	}
	return cachedWorld
}

func banner(format string, args ...any) {
	fmt.Printf("── "+format+"\n", args...)
}

func printAccuracy(rows []experiments.AccuracyRow) {
	fmt.Printf("  %-24s %10s %10s\n", "method", "mention", "tweet")
	for _, r := range rows {
		fmt.Printf("  %-24s %10.4f %10.4f\n", r.Label, r.Mention, r.Tweet)
	}
}

func printTiming(rows []experiments.TimingRow) {
	fmt.Printf("  %-24s %14s %14s\n", "method", "per mention", "per tweet")
	for _, r := range rows {
		fmt.Printf("  %-24s %14v %14v\n", r.Label, r.PerMention, r.PerTweet)
	}
}

func fig4a() {
	banner("Fig 4(a): accuracy vs state of the art (inactive-user test set)")
	printAccuracy(experiments.Fig4a(world()))
}

func fig4b() {
	banner("Fig 4(b): accuracy vs complementation corpus Dθ")
	printAccuracy(experiments.Fig4b(world(), []int{90, 70, 50, 30, 10}))
}

func fig4c() {
	banner("Fig 4(c): tf-idf vs entropy influence estimation")
	printAccuracy(experiments.Fig4c(world()))
}

func fig4d() {
	banner("Fig 4(d): recency propagation ablation")
	printAccuracy(experiments.Fig4d(world()))
}

func table4() {
	banner("Table 4: feature ablation (Eq. 1)")
	printAccuracy(experiments.Table4(world()))
}

func fig5a() {
	banner("Fig 5(a): linking time vs state of the art")
	printTiming(experiments.Fig5a(world()))
}

func fig5b() {
	banner("Fig 5(b): naive vs incremental transitive-closure construction")
	scales := experiments.DefaultScales()
	if *quick {
		scales = scales[:3]
	}
	fmt.Printf("  %-8s %10s %16s %16s\n", "dataset", "users", "naive (extrap)", "incremental")
	for _, r := range experiments.Fig5b(scales, 4) {
		fmt.Printf("  %-8s %10d %16v %16v\n", r.Label, r.Users, r.Naive.Round(time.Millisecond), r.Incremental.Round(time.Millisecond))
	}
}

func fig5c() {
	banner("Fig 5(c): linking time vs number of influential users")
	printTiming(experiments.Fig5c(world(), []int{1, 5, 10, 20, 50, 0}))
}

func fig5d() {
	banner("Fig 5(d): linking time vs knowledgebase complement size")
	printTiming(experiments.Fig5d(world(), []int{90, 70, 50, 30, 10}))
}

func table5() {
	banner("Table 5: reachability index comparison (transitive closure vs 2-hop)")
	scales := experiments.DefaultScales()
	nq := 1_000_000
	if *quick {
		scales = scales[:4]
		nq = 100_000
	}
	fmt.Printf("  %-8s %9s %9s %7s %7s | %11s %11s | %9s %9s | %11s %11s\n",
		"dataset", "#node", "#edge", "avgdeg", "maxdeg",
		"tc build", "2hop build", "tc size", "2hop size", "tc query", "2hop query")
	for _, r := range experiments.Table5(scales, 4, nq) {
		tcB, tcS, tcQ := "-", "-", "-"
		if r.ClosureBuild > 0 {
			tcB = r.ClosureBuild.Round(time.Millisecond).String()
			tcS = mb(r.ClosureBytes)
			tcQ = r.ClosureQuery.String()
		}
		fmt.Printf("  %-8s %9d %9d %7.1f %7d | %11s %11s | %9s %9s | %11s %11s\n",
			r.Label, r.Nodes, r.Edges, r.AvgDegree, r.MaxDegree,
			tcB, r.TwoHopBuild.Round(time.Millisecond),
			tcS, mb(r.TwoHopBytes),
			tcQ, r.TwoHopQuery)
	}
}

func mb(b int64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

func fig6ab() {
	banner("Fig 6(a,b): generalisability on the Weibo-flavoured corpus")
	p := experiments.WeiboWorldParams()
	fmt.Printf("  generating Weibo world (seed=%d)…\n", p.Seed)
	w := microlink.Generate(p)
	acc, tim := experiments.Fig6ab(w)
	printAccuracy(acc)
	printTiming(tim)
}

func fig6c() {
	banner("Fig 6(c): accuracy vs tweet length (mentions per tweet)")
	const maxLen = 4
	byMethod := experiments.Fig6c(world(), maxLen)
	fmt.Printf("  %-24s", "method")
	for l := 1; l <= maxLen; l++ {
		fmt.Printf(" %8s", fmt.Sprintf("len=%d", l))
	}
	fmt.Println()
	for _, m := range []string{"on-the-fly", "collective", "ours"} {
		fmt.Printf("  %-24s", m)
		for _, a := range byMethod[m] {
			fmt.Printf(" %8.4f", a.MentionAccuracy())
		}
		fmt.Println()
	}
}

func fig6d() {
	banner("Fig 6(d): sensitivity to α, β, γ")
	pts := experiments.Fig6d(world(), []float64{0.1, 0.3, 0.6, 0.9}, 4)
	fmt.Printf("  %6s %6s %6s %10s\n", "α", "β", "γ", "mention")
	for _, p := range pts {
		fmt.Printf("  %6.2f %6.2f %6.2f %10.4f\n", p.Alpha, p.Beta, p.Gamma, p.Mention)
	}
}

func taxonomy() {
	banner("§2 taxonomy: reachability substrates on one graph")
	users, nq := 2000, 20000
	if *quick {
		users, nq = 800, 5000
	}
	fmt.Printf("  %-24s %12s %10s %12s\n", "substrate", "build", "size", "query")
	for _, r := range experiments.Taxonomy(users, 4, nq) {
		fmt.Printf("  %-24s %12v %10s %12v\n",
			r.Substrate, r.Build.Round(time.Millisecond), mb(r.Bytes), r.Query)
	}
}

// index measures the reach construction engine: serial vs
// partitioned-parallel 2-hop build with a per-stage split, the parallel
// index-size delta, and steady-state query allocations. With -out the
// JSON result is also written to a file (`make bench-index` checks it in
// as BENCH_reach.json). -workers-sweep repeats the parallel build per
// worker count (each under a matching GOMAXPROCS) and emits a JSON array;
// -max-wait-frac turns the merge+barrier share of the build into a gate
// so the old serialized merge cannot silently come back.
func index() {
	banner("2-hop index build: serial vs parallel construction")
	opts := experiments.IndexBenchOptions{Users: 4000}
	if *quick {
		opts.Users = 1000
	}
	counts, err := sweepCounts(*workersSweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
		os.Exit(2)
	}
	var results []experiments.IndexBenchResult
	if len(counts) > 0 {
		results = experiments.IndexBenchSweep(opts, counts)
	} else {
		results = []experiments.IndexBenchResult{experiments.IndexBench(opts)}
	}
	r0 := results[0]
	fmt.Printf("  graph: %d users, %d edges, H=%d (num_cpu=%d)\n", r0.Users, r0.Edges, r0.MaxHops, r0.NumCPU)
	fmt.Printf("  serial build %v, %s, %d labels\n",
		(time.Duration(r0.SerialMS) * time.Millisecond).String(), mb(r0.SerialBytes), r0.SerialLabels)
	for _, r := range results {
		printIndexRecord(r)
	}
	r := results[len(results)-1]
	fmt.Printf("  fol pool: %d ids for %d refs (%.1f%% interned away)\n",
		r.FolPoolEntries, r.FolRefs, 100*(1-float64(r.FolPoolEntries)/float64(r.FolRefs)))
	fmt.Printf("  query: %dns/op, %.2f allocs/op\n", r.QueryNS, r.QueryAllocsOp)
	if len(counts) > 0 {
		writeJSON(results)
	} else {
		writeJSON(r0)
	}
	if *maxWaitFrac > 0 {
		for _, r := range results {
			if r.Workers <= 1 {
				continue
			}
			if r.MergeWaitFrac > *maxWaitFrac {
				fmt.Fprintf(os.Stderr,
					"linkbench: merge+barrier wait is %.0f%% of the workers=%d build (median of %d), above the %.0f%% gate — the merge barrier is back\n",
					100*r.MergeWaitFrac, r.Workers, r.ParallelBuilds, 100**maxWaitFrac)
				os.Exit(1)
			}
		}
		fmt.Printf("  merge-wait gate: all multi-worker records under %.0f%% of build time\n", 100**maxWaitFrac)
	}
}

func printIndexRecord(r experiments.IndexBenchResult) {
	fmt.Printf("  workers=%d gomaxprocs=%d: build %v, speedup %.2fx, size ratio %.3f (batch=%d, %d partitions)\n",
		r.Workers, r.GOMAXPROCS, (time.Duration(r.ParallelMS) * time.Millisecond).String(),
		r.Speedup, r.SizeRatio, r.BatchSize, r.MergePartitions)
	fmt.Printf("    stages: bfs %v, merge %v, barrier wait %v, freeze %v; merge+barrier %.1f%% (median of %d builds)\n",
		time.Duration(r.ParallelBFSMS)*time.Millisecond,
		time.Duration(r.ParallelMergeMS)*time.Millisecond,
		time.Duration(r.ParallelBarrierMS)*time.Millisecond,
		time.Duration(r.ParallelFreezeMS)*time.Millisecond,
		100*r.MergeWaitFrac, r.ParallelBuilds)
	if len(r.MergeUtilization) > 0 {
		fmt.Printf("    merge workers busy:")
		for _, u := range r.MergeUtilization {
			fmt.Printf(" %.0f%%", 100*u)
		}
		fmt.Println()
	}
}

// sweepCounts parses -workers-sweep: "" disables the sweep, "auto"
// selects 1,2,4 on multi-core machines (and disables the sweep on a
// single-CPU box, where extra workers only measure scheduler noise),
// anything else is a comma-separated list of worker counts.
func sweepCounts(spec string) ([]int, error) {
	switch spec {
	case "":
		return nil, nil
	case "auto":
		if runtime.NumCPU() > 1 {
			return []int{1, 2, 4}, nil
		}
		return nil, nil
	}
	var counts []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-workers-sweep: bad worker count %q", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// writeJSON honours -out for the experiment with a machine-readable
// result (index).
func writeJSON(r any) {
	if *out == "" {
		return
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "linkbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "linkbench: result written to %s\n", *out)
}

func categories() {
	banner("Appendix C.1: accuracy per entity category")
	fmt.Printf("  %-14s %8s %10s\n", "category", "share", "mention")
	for _, r := range experiments.Categories(world()) {
		fmt.Printf("  %-14s %7.1f%% %10.4f\n", r.Category, 100*r.Share, r.Mention)
	}
}
