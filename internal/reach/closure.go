package reach

import (
	"runtime"
	"sync"
	"time"

	"microlink/internal/graph"
)

// TransitiveClosure is the extended transitive-closure substrate of §4.1.1:
// the full weighted reachability "matrix", stored sparsely per source node,
// built by the paper's incremental Algorithm 1. Construction scans the
// network H times instead of running a BFS per node pair, giving
// O(H·|V|²) work versus the naive O(|V|⁴).
//
// Rows additionally record, for every reachable target, the followee count
// |F_uv| and distance so that Query can report the same information as the
// other substrates.
type TransitiveClosure struct {
	rows      []ctRow
	maps      []map[graph.NodeID]int32 // v → index into rows[u].entries
	followees *ctFollowees
	stats     BuildStats
}

type ctEntry struct {
	v    graph.NodeID
	dist uint8
	nFol int32   // |F_uv|: number of u's followees on shortest u→v paths
	w    float32 // R(u,v)
}

// ctRow holds the reach set of one source node, entries appended in
// non-decreasing distance order, so the frontier discovered in the previous
// iteration is always a suffix.
//
// microlint:owned — rows are partitioned by source node: during the
// build each worker mutates only the rows in its [lo, hi) range, and
// after the final wg.Wait the rows are immutable.
type ctRow struct {
	entries       []ctEntry
	frontierStart int32 // first entry with dist == previous iteration's len
}

// ClosureOptions tunes Algorithm 1.
type ClosureOptions struct {
	// MaxHops is the hop bound H; ≤ 0 selects DefaultMaxHops.
	MaxHops int
	// Workers bounds construction parallelism; ≤ 0 selects GOMAXPROCS.
	// The per-iteration work parallelises across source nodes because each
	// node appends only to its own row and reads frozen snapshots of the
	// previous frontier.
	Workers int
	// KeepFollowees records the identities (not just the count) of the
	// followees on shortest paths, needed when callers want Result.Followees
	// populated. It grows the index; the linker itself only needs R(u,v),
	// so it defaults to off.
	KeepFollowees bool
}

// followeeSets, parallel to rows, populated only with KeepFollowees.
//
// microlint:owned — the sets slice is allocated before the build forks
// and its per-source maps are mutated only by the worker owning that
// source range; immutable once the build returns.
type ctFollowees struct {
	sets []map[graph.NodeID][]graph.NodeID
}

// BuildTransitiveClosure runs Algorithm 1 over g.
func BuildTransitiveClosure(g *graph.Graph, opts ClosureOptions) *TransitiveClosure {
	h := opts.MaxHops
	if h <= 0 {
		h = DefaultMaxHops
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The closure is assembled from build-local state and constructed
	// only after every worker has joined: nothing ever mutates a
	// published *TransitiveClosure.
	start := time.Now()
	n := g.NumNodes()
	rows := make([]ctRow, n)
	maps := make([]map[graph.NodeID]int32, n)
	fol := &ctFollowees{}
	if opts.KeepFollowees {
		fol.sets = make([]map[graph.NodeID][]graph.NodeID, n)
	}

	// Iteration 1 (Algorithm 1 lines 2–4): direct edges get R = 1.
	for u := 0; u < n; u++ {
		out := g.Out(graph.NodeID(u))
		row := &rows[u]
		row.entries = make([]ctEntry, 0, len(out))
		m := make(map[graph.NodeID]int32, len(out))
		for _, v := range out {
			m[v] = int32(len(row.entries))
			row.entries = append(row.entries, ctEntry{v: v, dist: 1, nFol: 1, w: 1})
		}
		maps[u] = m
		if opts.KeepFollowees {
			fs := make(map[graph.NodeID][]graph.NodeID, len(out))
			for _, v := range out {
				fs[v] = []graph.NodeID{v}
			}
			fol.sets[u] = fs
		}
	}

	// Iterations len = 2..H (lines 5–18). Per iteration we snapshot every
	// row's frontier — the entries discovered at distance len−1 — and then,
	// in parallel over source nodes, count for each new target v how many
	// followees t of u have d(t,v) = len−1 (Theorem 1) and insert
	// R(u,v) = (1/len)·(n_v/|T|).
	type frontier struct {
		entries []ctEntry // immutable snapshot slice
	}
	fronts := make([]frontier, n)
	for length := 2; length <= h; length++ {
		anyFrontier := false
		for u := 0; u < n; u++ {
			row := &rows[u]
			fronts[u] = frontier{entries: row.entries[row.frontierStart:len(row.entries):len(row.entries)]}
			if len(fronts[u].entries) > 0 {
				anyFrontier = true
			}
		}
		if !anyFrontier {
			break // no node gained new reach last round; fixpoint
		}
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				cnt := make(map[graph.NodeID]int32)
				var folScratch map[graph.NodeID][]graph.NodeID
				if opts.KeepFollowees {
					folScratch = make(map[graph.NodeID][]graph.NodeID)
				}
				for u := lo; u < hi; u++ {
					uid := graph.NodeID(u)
					followees := g.Out(uid)
					if len(followees) == 0 {
						continue
					}
					clear(cnt)
					if opts.KeepFollowees {
						clear(folScratch)
					}
					for _, t := range followees {
						for i := range fronts[t].entries {
							e := &fronts[t].entries[i]
							cnt[e.v]++
							if opts.KeepFollowees {
								folScratch[e.v] = append(folScratch[e.v], t)
							}
						}
					}
					row := &rows[u]
					newStart := int32(len(row.entries))
					m := maps[u]
					for v, c := range cnt {
						if v == uid {
							continue
						}
						if _, exists := m[v]; exists {
							continue // a shorter path already known (line 13)
						}
						m[v] = int32(len(row.entries))
						// Entry order inside a row is internal: every read goes
						// through the m[v] index, and R/NFol per (u,v) pair are
						// order-independent sums. Sorting here would slow the
						// hottest loop of the O(n·d) build for no observable gain.
						//nolint:microlint/detercheck -- row order is never observable; lookups go through m[v]
						row.entries = append(row.entries, ctEntry{
							v:    v,
							dist: uint8(length),
							nFol: c,
							w:    float32(1) / float32(length) * float32(c) / float32(len(followees)),
						})
						if opts.KeepFollowees {
							fol.sets[u][v] = append([]graph.NodeID(nil), folScratch[v]...)
						}
					}
					row.frontierStart = newStart
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	var entries int64
	for u := range rows {
		entries += int64(len(rows[u].entries))
	}
	return &TransitiveClosure{
		rows:      rows,
		maps:      maps,
		followees: fol,
		stats:     BuildStats{BuildTime: time.Since(start), Entries: entries},
	}
}

// lookupFollowees returns F_uv's identities, nil without KeepFollowees.
func (tc *TransitiveClosure) lookupFollowees(u, v graph.NodeID) []graph.NodeID {
	if tc.followees.sets == nil {
		return nil
	}
	return tc.followees.sets[u][v]
}

// Query implements Index. Followee identities are populated only when the
// index was built with KeepFollowees; the count is always correct via R.
func (tc *TransitiveClosure) Query(u, v graph.NodeID) (Result, bool) {
	if u == v {
		return Result{Dist: 0}, true
	}
	idx, ok := tc.maps[u][v]
	if !ok {
		return Result{}, false
	}
	e := tc.rows[u].entries[idx]
	res := Result{Dist: int(e.dist), Followees: tc.lookupFollowees(u, v)}
	if res.Followees == nil && e.dist == 1 {
		res.Followees = []graph.NodeID{v}
	}
	return res, true
}

// R implements Index with a single map lookup — the constant-time query the
// transitive-closure approach is chosen for (paper §2).
func (tc *TransitiveClosure) R(u, v graph.NodeID) float64 {
	if u == v {
		return 1
	}
	idx, ok := tc.maps[u][v]
	if !ok {
		return 0
	}
	return float64(tc.rows[u].entries[idx].w)
}

// RFrom implements Index with one map lookup per target.
func (tc *TransitiveClosure) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) {
	rFromLoop(tc, u, vs, out)
}

// NumFollowees returns |F_uv| without materialising the set.
func (tc *TransitiveClosure) NumFollowees(u, v graph.NodeID) int {
	idx, ok := tc.maps[u][v]
	if !ok {
		return 0
	}
	return int(tc.rows[u].entries[idx].nFol)
}

// SizeBytes implements Index.
func (tc *TransitiveClosure) SizeBytes() int64 {
	var b int64
	for u := range tc.rows {
		b += int64(len(tc.rows[u].entries)) * 12 // v(4) + dist(1,padded) + nFol(4) + w(4) ≈ 12B packed
		b += int64(len(tc.maps[u])) * 16         // map entry overhead approximation
	}
	if tc.followees != nil && tc.followees.sets != nil {
		for _, m := range tc.followees.sets {
			for _, s := range m {
				b += int64(len(s))*4 + 16
			}
		}
	}
	return b
}

// BuildStats implements Index.
func (tc *TransitiveClosure) BuildStats() BuildStats { return tc.stats }

// Reachable returns the number of nodes reachable from u within H hops.
func (tc *TransitiveClosure) Reachable(u graph.NodeID) int { return len(tc.rows[u].entries) }
