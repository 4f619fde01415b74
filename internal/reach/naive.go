package reach

import (
	"time"

	"microlink/internal/graph"
)

// Naive answers weighted reachability queries with no precomputation: a
// forward BFS from u finds d_uv, then a backward BFS from v bounded by
// d_uv−1 identifies which of u's followees lie on shortest paths (by
// Theorem 1, followee t participates iff d_tv = d_uv − 1). Each query costs
// O(|E|); this is the baseline whose quadratic-pairs construction cost
// motivates the incremental Algorithm 1 (paper Fig. 5(b)).
//
// Naive is safe for concurrent use: each query borrows a traversal pair
// from an internal free list.
type Naive struct {
	g    *graph.Graph
	h    int
	pool chan *naiveScratch
}

// naiveScratch pairs the two traversals one query needs.
//
// microlint:owned — handed out by the channel free list in get/put to
// exactly one query goroutine at a time.
type naiveScratch struct {
	fwd *graph.Traversal
	bwd *graph.Traversal
}

// NewNaive returns a Naive reachability oracle over g with hop bound
// maxHops (H). maxHops ≤ 0 selects DefaultMaxHops.
func NewNaive(g *graph.Graph, maxHops int) *Naive {
	if maxHops <= 0 {
		maxHops = DefaultMaxHops
	}
	return &Naive{g: g, h: maxHops, pool: make(chan *naiveScratch, 16)}
}

func (n *Naive) get() *naiveScratch {
	select {
	case s := <-n.pool:
		return s
	default:
		return &naiveScratch{fwd: graph.NewTraversal(n.g), bwd: graph.NewTraversal(n.g)}
	}
}

func (n *Naive) put(s *naiveScratch) {
	select {
	case n.pool <- s:
	default:
	}
}

// Query implements Index.
func (n *Naive) Query(u, v graph.NodeID) (Result, bool) {
	if u == v {
		return Result{Dist: 0}, true
	}
	s := n.get()
	defer n.put(s)

	d := s.fwd.ShortestDist(u, v, n.h)
	if d < 0 {
		return Result{}, false
	}
	if d == 1 {
		return Result{Dist: 1, Followees: []graph.NodeID{v}}, true
	}
	// Backward BFS from v, bounded d−1: afterwards Dist(t) is the distance
	// from t to v for every t within d−1 hops of v.
	s.bwd.Backward(v, d-1, func(graph.NodeID, int) bool { return true })
	var followees []graph.NodeID
	for _, t := range n.g.Out(u) {
		if s.bwd.Dist(t) == d-1 {
			followees = append(followees, t)
		}
	}
	return Result{Dist: d, Followees: followees}, true
}

// R implements Index.
func (n *Naive) R(u, v graph.NodeID) float64 {
	res, ok := n.Query(u, v)
	return score(res, ok, n.g.OutDegree(u))
}

// RFrom implements Index with one R per target.
func (n *Naive) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) { rFromLoop(n, u, vs, out) }

// SizeBytes implements Index; the naive oracle holds no index.
func (n *Naive) SizeBytes() int64 { return 0 }

// BuildStats implements Index; the naive oracle builds nothing.
func (n *Naive) BuildStats() BuildStats { return BuildStats{} }

// NaiveClosureTime measures the cost of materialising the full weighted
// reachability matrix by running the naive per-pair query for every ordered
// pair of nodes — the "naive method" curve of Fig. 5(b). To keep the
// benchmark harness responsive on larger graphs it stops early once budget
// elapses (budget ≤ 0 means no limit) and reports the extrapolated total.
func NaiveClosureTime(g *graph.Graph, maxHops int, budget time.Duration) (measured, extrapolated time.Duration) {
	n := NewNaive(g, maxHops)
	start := time.Now()
	total := int64(g.NumNodes()) * int64(g.NumNodes())
	var done int64
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if u != v {
				n.Query(graph.NodeID(u), graph.NodeID(v))
			}
			done++
		}
		if budget > 0 && time.Since(start) > budget {
			elapsed := time.Since(start)
			return elapsed, time.Duration(float64(elapsed) * float64(total) / float64(done))
		}
	}
	elapsed := time.Since(start)
	return elapsed, elapsed
}
