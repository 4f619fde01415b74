package reach

import (
	"math/rand"
	"time"

	"microlink/internal/graph"
)

// PrunedSearch is the online-search substrate of the paper's §2 taxonomy,
// in the style of GRAIL [19]: no distance index at all, only lightweight
// interval labels on the SCC condensation that refute unreachable pairs
// without traversal. Reachable (or maybe-reachable) pairs fall back to the
// naive double BFS, so queries cost up to O(|E|) — the behaviour that
// makes the paper dismiss online search for real-time linking, reproduced
// here for completeness and for the Table 5 comparison benches.
//
// Labels: k independent randomized post-order DFS passes over the
// condensation DAG assign each component an interval [lowest post-order in
// its subtree, own post-order]. If u reaches v then u's interval contains
// v's in every pass; the contrapositive refutes in O(k).
type PrunedSearch struct {
	g      *graph.Graph
	h      int
	scc    *graph.SCC
	labels [][2]int32 // prunedPasses intervals per component, flattened
	naive  *Naive
	stats  BuildStats
}

// prunedPasses is k, the number of independent random interval labelings;
// a pair is refuted when any one pass refutes it.
const prunedPasses = 2

// PrunedOptions tunes the online-search oracle.
type PrunedOptions struct {
	// MaxHops is the hop bound H; ≤ 0 selects DefaultMaxHops.
	MaxHops int
	// Seed drives the random traversal orders.
	Seed int64
}

// NewPrunedSearch builds the interval labels over g.
func NewPrunedSearch(g *graph.Graph, opts PrunedOptions) *PrunedSearch {
	if opts.MaxHops <= 0 {
		opts.MaxHops = DefaultMaxHops
	}
	start := time.Now()
	scc := graph.StronglyConnected(g)
	dag := scc.Condense(g)
	ps := &PrunedSearch{
		g:      g,
		h:      opts.MaxHops,
		scc:    scc,
		labels: make([][2]int32, scc.Count*prunedPasses),
		naive:  NewNaive(g, opts.MaxHops),
	}
	r := rand.New(rand.NewSource(opts.Seed + 1))
	for pass := 0; pass < prunedPasses; pass++ {
		ps.labelPass(dag, pass, r)
	}
	ps.stats = BuildStats{
		BuildTime: time.Since(start),
		Entries:   int64(len(ps.labels)),
	}
	return ps
}

// labelPass runs one randomized post-order DFS over the DAG, assigning
// [min-post-in-subtree, post] intervals.
func (ps *PrunedSearch) labelPass(dag *graph.Graph, pass int, r *rand.Rand) {
	n := dag.NumNodes()
	visited := make([]bool, n)
	var post int32

	order := r.Perm(n)
	type frame struct {
		v   graph.NodeID
		ei  int
		adj []graph.NodeID
	}
	var stack []frame
	shuffled := func(s []graph.NodeID) []graph.NodeID {
		out := append([]graph.NodeID(nil), s...)
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	set := func(c graph.NodeID, lo, hi int32) {
		ps.labels[int(c)*prunedPasses+pass] = [2]int32{lo, hi}
	}
	get := func(c graph.NodeID) [2]int32 { return ps.labels[int(c)*prunedPasses+pass] }

	for _, rootIdx := range order {
		root := graph.NodeID(rootIdx)
		if visited[root] {
			continue
		}
		visited[root] = true
		stack = append(stack[:0], frame{v: root, adj: shuffled(dag.Out(root))})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < len(f.adj) {
				w := f.adj[f.ei]
				f.ei++
				if !visited[w] {
					visited[w] = true
					stack = append(stack, frame{v: w, adj: shuffled(dag.Out(w))})
				}
				continue
			}
			// Post-visit: interval = [min over children (already final),
			// own post].
			lo := post
			for _, w := range dag.Out(f.v) {
				if cl := get(w); cl[0] < lo {
					lo = cl[0]
				}
			}
			set(f.v, lo, post)
			post++
			stack = stack[:len(stack)-1]
		}
	}
}

// MaybeReachable applies the interval filter: false means u certainly
// cannot reach v; true means a traversal is needed.
func (ps *PrunedSearch) MaybeReachable(u, v graph.NodeID) bool {
	cu, cv := ps.scc.Comp[u], ps.scc.Comp[v]
	if cu == cv {
		return true
	}
	for pass := 0; pass < prunedPasses; pass++ {
		lu := ps.labels[int(cu)*prunedPasses+pass]
		lv := ps.labels[int(cv)*prunedPasses+pass]
		if lv[0] < lu[0] || lv[1] > lu[1] {
			return false
		}
	}
	return true
}

// Query implements Index: interval refutation first, bounded BFS otherwise.
func (ps *PrunedSearch) Query(u, v graph.NodeID) (Result, bool) {
	if u == v {
		return Result{Dist: 0}, true
	}
	if !ps.MaybeReachable(u, v) {
		return Result{}, false
	}
	return ps.naive.Query(u, v)
}

// R implements Index.
func (ps *PrunedSearch) R(u, v graph.NodeID) float64 {
	res, ok := ps.Query(u, v)
	return score(res, ok, ps.g.OutDegree(u))
}

// RFrom implements Index with one R per target.
func (ps *PrunedSearch) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) {
	rFromLoop(ps, u, vs, out)
}

// SizeBytes implements Index: the labels are the entire index.
func (ps *PrunedSearch) SizeBytes() int64 {
	return int64(len(ps.labels))*8 + int64(len(ps.scc.Comp))*4
}

// BuildStats implements Index.
func (ps *PrunedSearch) BuildStats() BuildStats { return ps.stats }
