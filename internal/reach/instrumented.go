package reach

import (
	"fmt"

	"microlink/internal/graph"
	"microlink/internal/obs"
)

// Instrumented wraps an Index, counting queries and recording their
// latency into a registry under
//
//	microlink_reach_queries_total{kind=…}
//	microlink_reach_query_seconds{kind=…}
//
// where kind names the substrate (closure, twohop, naive, pruned,
// streaming). The counter advances once per R and len(vs) per RFrom; the
// histogram takes one sample per call of either. The wrapper adds two
// clock reads per call on top of the atomic updates;
// callers that need the raw substrate (serialisation, follow-edge
// inserts) can recover it via Unwrap.
type Instrumented struct {
	inner   Index
	queries *obs.Counter
	seconds *obs.Histogram
}

// Instrument wraps idx with query metrics registered in reg.
func Instrument(idx Index, reg *obs.Registry) *Instrumented {
	kind := KindName(idx)
	return &Instrumented{
		inner: idx,
		queries: reg.CounterVec("microlink_reach_queries_total",
			"Weighted reachability queries, by index substrate.", "kind").With(kind),
		seconds: reg.HistogramVec("microlink_reach_query_seconds",
			"Weighted reachability call latency (one sample per R or RFrom call), by index substrate.", nil, "kind").With(kind),
	}
}

// KindName names an index substrate for metric labels.
func KindName(idx Index) string {
	switch idx.(type) {
	case *TransitiveClosure:
		return "closure"
	case *TwoHop:
		return "twohop"
	case *Naive:
		return "naive"
	case *PrunedSearch:
		return "pruned"
	case *Streaming:
		return "streaming"
	case *Instrumented:
		return KindName(idx.(*Instrumented).inner)
	default:
		return fmt.Sprintf("%T", idx)
	}
}

// Unwrap returns the underlying index.
func (x *Instrumented) Unwrap() Index { return x.inner }

// PublishTwoHopBuild exposes a 2-hop cover's construction profile as
// gauges, so operators can see how the index on a running linker was built
// (parallelism, batch merge overhead, label volume, memory):
//
//	microlink_reach_twohop_build_workers
//	microlink_reach_twohop_build_batch_size
//	microlink_reach_twohop_build_bfs_seconds
//	microlink_reach_twohop_build_merge_seconds
//	microlink_reach_twohop_build_barrier_wait_seconds
//	microlink_reach_twohop_build_freeze_seconds
//	microlink_reach_twohop_labels
//	microlink_reach_twohop_fol_pool_entries
//	microlink_reach_twohop_bytes
//
// merge_seconds and barrier_wait_seconds used to be summed into a single
// merge_wait_seconds gauge, which hid where the time went; they are
// published separately so a regression toward a serialized merge shows up
// as barrier growth, not as undifferentiated "merge wait".
func PublishTwoHopBuild(th *TwoHop, reg *obs.Registry) {
	info := th.BuildInfo()
	reg.Gauge("microlink_reach_twohop_build_workers",
		"Worker goroutines used by the last 2-hop cover build (0 = loaded from disk).").Set(float64(info.Workers))
	reg.Gauge("microlink_reach_twohop_build_batch_size",
		"Hub batch size of the last 2-hop cover build.").Set(float64(info.BatchSize))
	reg.Gauge("microlink_reach_twohop_build_bfs_seconds",
		"Pruned hub-BFS phase wall clock of the last 2-hop build.").Set(info.BFSTime.Seconds())
	reg.Gauge("microlink_reach_twohop_build_merge_seconds",
		"Partitioned delta-merge phase wall clock of the last 2-hop build.").Set(info.MergeTime.Seconds())
	reg.Gauge("microlink_reach_twohop_build_barrier_wait_seconds",
		"Mean per-worker idle at the batch-epoch fences of the last 2-hop build.").Set(info.BarrierWait.Seconds())
	reg.Gauge("microlink_reach_twohop_build_freeze_seconds",
		"Arena freeze wall clock of the last 2-hop build.").Set(info.FreezeTime.Seconds())
	out, in := th.LabelCounts()
	reg.Gauge("microlink_reach_twohop_labels",
		"Total 2-hop labels (out + in) in the frozen cover.").Set(float64(out + in))
	reg.Gauge("microlink_reach_twohop_fol_pool_entries",
		"Node ids in the interned followee pool of the frozen cover.").Set(float64(info.FolPool))
	reg.Gauge("microlink_reach_twohop_bytes",
		"Measured bytes of the frozen 2-hop cover arenas.").Set(float64(th.SizeBytes()))
}

// Query implements Index.
func (x *Instrumented) Query(u, v graph.NodeID) (Result, bool) {
	sp := obs.StartSpan(x.seconds)
	res, ok := x.inner.Query(u, v)
	sp.Stop()
	x.queries.Inc()
	return res, ok
}

// R implements Index.
func (x *Instrumented) R(u, v graph.NodeID) float64 {
	sp := obs.StartSpan(x.seconds)
	r := x.inner.R(u, v)
	sp.Stop()
	x.queries.Inc()
	return r
}

// RFrom implements Index: one latency sample for the whole call, and
// len(vs) queries on the counter.
func (x *Instrumented) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) {
	sp := obs.StartSpan(x.seconds)
	x.inner.RFrom(u, vs, out)
	sp.Stop()
	x.queries.Add(uint64(len(vs)))
}

// SizeBytes implements Index, reporting the wrapped index's size.
func (x *Instrumented) SizeBytes() int64 { return x.inner.SizeBytes() }

// BuildStats implements Index.
func (x *Instrumented) BuildStats() BuildStats { return x.inner.BuildStats() }
