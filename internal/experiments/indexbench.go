package experiments

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"microlink/internal/graph"
	"microlink/internal/reach"
	"microlink/internal/synth"
)

// IndexBench quantifies the reach construction pipeline on one synthetic
// graph: serial vs partitioned-parallel 2-hop construction time with a
// per-stage split (BFS / merge / barrier / freeze), the parallel build's
// index-size delta (batch-frozen pruning admits slightly more labels), and
// the query hot path's steady-state allocation count. `linkbench index`
// serialises the result to BENCH_reach.json so the numbers are checked in
// next to the claims that cite them; `-workers-sweep` emits one record per
// worker count so multi-core scaling is measured, not asserted.

// IndexBenchResult is the JSON payload of `linkbench index`.
type IndexBenchResult struct {
	Users      int   `json:"users"`
	Edges      int   `json:"edges"`
	MaxHops    int   `json:"max_hops"`
	NumCPU     int   `json:"num_cpu"`    // hardware context for the speedup figure
	GOMAXPROCS int   `json:"gomaxprocs"` // scheduler width the parallel build ran under
	Workers    int   `json:"workers"`
	BatchSize  int   `json:"batch_size"`
	SerialMS   int64 `json:"serial_build_ms"`
	ParallelMS int64 `json:"parallel_build_ms"`

	// Per-stage split of the parallel build (BFS + merge + freeze ≈
	// parallel_build_ms; barrier is a slice of the BFS/merge walls), so
	// regressions point at the guilty stage instead of the aggregate.
	// The parallel build is timed ParallelBuilds times; these fields are
	// the run with the median wall clock.
	ParallelBuilds    int   `json:"parallel_builds"`
	ParallelBFSMS     int64 `json:"parallel_bfs_ms"`
	ParallelMergeMS   int64 `json:"parallel_merge_ms"`
	ParallelBarrierMS int64 `json:"parallel_barrier_wait_ms"`
	ParallelFreezeMS  int64 `json:"parallel_freeze_ms"`

	// MergeWaitFrac is the median over the ParallelBuilds runs of
	// (merge + barrier wait) / build wall clock, from unrounded
	// durations. The CI smoke gates it at < 25% so a serialized merge
	// cannot come back.
	MergeWaitFrac float64 `json:"merge_wait_frac"`

	// MergePartitions is the node-range partition count the concurrent
	// merge fanned over; MergeUtilization each merge worker's busy
	// fraction of the merge wall clock (absent for serial merges).
	MergePartitions  int       `json:"merge_partitions"`
	MergeUtilization []float64 `json:"merge_worker_utilization,omitempty"`

	SerialBytes    int64   `json:"serial_index_bytes"`
	ParallelBytes  int64   `json:"parallel_index_bytes"`
	SizeRatio      float64 `json:"parallel_size_ratio"` // parallel / serial
	Speedup        float64 `json:"build_speedup"`       // serial / parallel
	SerialLabels   int64   `json:"serial_labels"`
	ParallelLabels int64   `json:"parallel_labels"`
	FolPoolEntries int64   `json:"fol_pool_entries"`
	FolRefs        int64   `json:"fol_refs"` // pre-intern followee ids

	QueryNS       int64   `json:"query_ns_per_op"`
	QueryAllocsOp float64 `json:"query_allocs_per_op"`
}

// IndexBenchOptions sizes the run. Zero values select the defaults.
type IndexBenchOptions struct {
	Users   int // default 4000 (Table 5's D50 scale)
	MaxHops int
	Workers int // default 4
}

func (opts *IndexBenchOptions) setDefaults() {
	if opts.Users <= 0 {
		opts.Users = 4000
	}
	if opts.MaxHops <= 0 {
		opts.MaxHops = reach.DefaultMaxHops
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
}

// indexBenchGraph builds the shared benchmark graph.
func indexBenchGraph(opts IndexBenchOptions) *graph.Graph {
	return synth.GenerateGraph(synth.GraphParams{Seed: 99, Users: opts.Users, MeanFollows: 10})
}

// indexRepeats is how many parallel builds benchParallel times per worker
// count. One build on a shared host is judged at the mercy of whatever
// ran beside it; the median of five is not.
const indexRepeats = 5

// buildSerial runs the exact serial Algorithm 2 baseline.
func buildSerial(g *graph.Graph, maxHops int) *reach.TwoHop {
	return reach.BuildTwoHop(g, reach.TwoHopOptions{MaxHops: maxHops, Workers: 1, BatchSize: 1})
}

// benchParallel builds the parallel cover with workers goroutines under a
// matching GOMAXPROCS and fills one result record against the serial
// baseline. Raising GOMAXPROCS per record is what lets a sweep measure
// real multi-core scaling in one process; the previous setting is
// restored before returning.
func benchParallel(g *graph.Graph, serial *reach.TwoHop, opts IndexBenchOptions) IndexBenchResult {
	prev := runtime.GOMAXPROCS(0)
	if opts.Workers != prev {
		runtime.GOMAXPROCS(opts.Workers)
		defer runtime.GOMAXPROCS(prev)
	}
	builds := make([]*reach.TwoHop, indexRepeats)
	fracs := make([]float64, indexRepeats)
	for i := range builds {
		th := reach.BuildTwoHop(g, reach.TwoHopOptions{
			MaxHops: opts.MaxHops, Workers: opts.Workers, BatchSize: reach.DefaultTwoHopBatch,
		})
		info := th.BuildInfo()
		builds[i] = th
		fracs[i] = float64(info.MergeTime+info.BarrierWait) / float64(th.BuildStats().BuildTime)
	}
	sort.Slice(builds, func(i, j int) bool {
		return builds[i].BuildStats().BuildTime < builds[j].BuildStats().BuildTime
	})
	sort.Float64s(fracs)
	par := builds[len(builds)/2]

	sOut, sIn := serial.LabelCounts()
	pOut, pIn := par.LabelCounts()
	info := par.BuildInfo()
	res := IndexBenchResult{
		Users:             g.NumNodes(),
		Edges:             g.NumEdges(),
		MaxHops:           opts.MaxHops,
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Workers:           info.Workers,
		BatchSize:         info.BatchSize,
		SerialMS:          serial.BuildStats().BuildTime.Milliseconds(),
		ParallelMS:        par.BuildStats().BuildTime.Milliseconds(),
		ParallelBuilds:    len(builds),
		ParallelBFSMS:     info.BFSTime.Milliseconds(),
		ParallelMergeMS:   info.MergeTime.Milliseconds(),
		ParallelBarrierMS: info.BarrierWait.Milliseconds(),
		ParallelFreezeMS:  info.FreezeTime.Milliseconds(),
		MergeWaitFrac:     fracs[len(fracs)/2],
		MergePartitions:   info.Partitions,
		MergeUtilization:  info.MergeUtilization,
		SerialBytes:       serial.SizeBytes(),
		ParallelBytes:     par.SizeBytes(),
		SerialLabels:      sOut + sIn,
		ParallelLabels:    pOut + pIn,
		FolPoolEntries:    info.FolPool,
		FolRefs:           info.FolRefs,
	}
	if res.SerialBytes > 0 {
		res.SizeRatio = float64(res.ParallelBytes) / float64(res.SerialBytes)
	}
	if par.BuildStats().BuildTime > 0 {
		res.Speedup = float64(serial.BuildStats().BuildTime) / float64(par.BuildStats().BuildTime)
	}
	res.QueryNS, res.QueryAllocsOp = measureQueryAllocs(par, g.NumNodes())
	return res
}

// IndexBench builds the 2-hop cover serially and in parallel over the same
// graph and measures the construction/size/query deltas.
func IndexBench(opts IndexBenchOptions) IndexBenchResult {
	opts.setDefaults()
	g := indexBenchGraph(opts)
	serial := buildSerial(g, opts.MaxHops)
	return benchParallel(g, serial, opts)
}

// IndexBenchSweep runs IndexBench once per worker count against a single
// shared serial baseline, returning one record per count. Each parallel
// build runs under GOMAXPROCS = workers, so the sweep captures genuine
// multi-core scaling (or, on a single-CPU box, honestly records ~1×).
func IndexBenchSweep(opts IndexBenchOptions, workerCounts []int) []IndexBenchResult {
	opts.setDefaults()
	g := indexBenchGraph(opts)
	serial := buildSerial(g, opts.MaxHops)
	results := make([]IndexBenchResult, 0, len(workerCounts))
	for _, w := range workerCounts {
		o := opts
		o.Workers = w
		results = append(results, benchParallel(g, serial, o))
	}
	return results
}

// measureQueryAllocs times R on the frozen cover and reports steady-state
// allocations per query via the runtime's malloc counter (the testing
// package's AllocsPerRun is unavailable outside tests).
func measureQueryAllocs(th *reach.TwoHop, nodes int) (nsPerOp int64, allocsPerOp float64) {
	r := rand.New(rand.NewSource(7))
	pairs := make([][2]graph.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(nodes)), graph.NodeID(r.Intn(nodes))}
	}
	for _, p := range pairs { // warm the scratch pool
		th.R(p[0], p[1])
	}
	const n = 50_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		p := pairs[i&1023]
		th.R(p[0], p[1])
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return int64(elapsed) / n, float64(after.Mallocs-before.Mallocs) / n
}
