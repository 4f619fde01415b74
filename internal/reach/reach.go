// Package reach implements weighted reachability over the followee–follower
// network (paper §4.1.1, Eq. 4):
//
//	R(u,v) = (1/d_uv) · |F_uv| / |F_u|
//
// where d_uv is the shortest-path distance from u to v and F_uv is the set
// of u's followees that participate in at least one shortest path from u to
// v. Five interchangeable substrates are provided:
//
//   - Naive: a per-query double BFS with no index — the baseline the paper's
//     Fig. 5(b) compares against.
//   - PrunedSearch: the online-search row of Fig. 5(b) — GRAIL interval
//     labels refute unreachable pairs, a bounded double BFS answers the rest.
//   - TransitiveClosure: the extended transitive-closure matrix built by the
//     paper's incremental Algorithm 1 in O(H·|V|²) instead of O(|V|⁴).
//   - TwoHop: the extended 2-hop cover of Algorithm 2 (pruned landmark
//     labeling with per-label followee sets), trading query time for a much
//     smaller index (paper Table 5).
//   - Streaming: a frozen TwoHop arena serving queries lock-free beside a
//     live follow graph, replaced wholesale by copy-on-swap rebuilds (the
//     ingest pipeline's substrate).
//
// Besides the pairwise R, every substrate answers RFrom: one source
// against many targets, equal to a loop over R under ==. Eq. 8 asks
// exactly that — one author against every averaged user of the missing
// candidates — and TwoHop answers it natively, reading the author's
// out-labels once instead of once per target; the others loop over R.
//
// One deliberate deviation from the literal formula: for a direct follow
// edge (d_uv = 1) Eq. 4 would yield 1/|F_u|, but the paper's Algorithm 1
// explicitly initialises direct edges to R = 1 (line 3). We follow the
// algorithm in all substrates so they agree with each other: following
// someone directly is maximal interest.
package reach

import (
	"time"

	"microlink/internal/graph"
)

// DefaultMaxHops is the default hop bound H. The paper cites the Twitter
// small-world result (average path 4.12 hops, [16]) to argue H stays small.
const DefaultMaxHops = 4

// Result carries the answer to a weighted reachability query
// Query(u, v): the shortest-path distance and the set of u's followees
// participating in at least one shortest path from u to v.
type Result struct {
	Dist      int            // shortest-path distance in hops
	Followees []graph.NodeID // F_uv: ascending from TwoHop and Streaming, unspecified order otherwise
}

// Index answers weighted reachability queries. Implementations are safe for
// concurrent queries after construction.
type Index interface {
	// Query returns the shortest-path distance from u to v within the hop
	// bound and u's followees on shortest paths. ok is false when v is not
	// reachable from u within H hops.
	Query(u, v graph.NodeID) (Result, bool)
	// R returns the weighted reachability score in [0, 1].
	R(u, v graph.NodeID) float64
	// RFrom writes R(u, vs[i]) into out[i] for every i, equal to a loop
	// over R under ==. out must hold at least len(vs) entries.
	RFrom(u graph.NodeID, vs []graph.NodeID, out []float64)
	// SizeBytes estimates the memory held by the index (Table 5's
	// "index size" column).
	SizeBytes() int64
	// BuildStats reports construction-time metrics.
	BuildStats() BuildStats
}

// BuildStats summarises index construction, feeding Table 5 and Fig. 5(b).
type BuildStats struct {
	BuildTime time.Duration // wall-clock construction time
	Entries   int64         // closure entries or 2-hop labels stored
}

// rFromLoop is RFrom for the substrates without a batched kernel: one R
// per target.
func rFromLoop(idx Index, u graph.NodeID, vs []graph.NodeID, out []float64) {
	for i, v := range vs {
		out[i] = idx.R(u, v)
	}
}

// score converts a query result into R(u,v) per Eq. 4 with the Algorithm 1
// convention for d ≤ 1. outDeg is |F_u|.
func score(res Result, ok bool, outDeg int) float64 {
	if !ok {
		return 0
	}
	switch {
	case res.Dist == 0:
		// u's interest in herself: maximal by convention (the paper leaves
		// this case undefined; a user trivially "reaches" herself).
		return 1
	case res.Dist == 1:
		return 1
	default:
		if outDeg == 0 {
			return 0
		}
		return 1 / float64(res.Dist) * float64(len(res.Followees)) / float64(outDeg)
	}
}
