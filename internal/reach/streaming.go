package reach

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"microlink/internal/graph"
)

// Streaming is the reachability substrate of the ingest pipeline: a frozen
// 2-hop cover (Algorithm 2) serving queries lock-free behind an atomic
// pointer, paired with the live follow graph kept as what a rebuild reads
// — an immutable base CSR plus a deduplicated tail of edges inserted
// since. The two are reconciled by copy-on-swap: a rebuild folds the tail
// into a new base, runs the parallel 2-hop builder on it off the hot
// path, and Install publishes the new arena with two atomic stores —
// queries never block on maintenance, and the gap between the live graph
// and the frozen arena is the bounded, observable staleness the ingest
// pipeline reports.
//
// Concurrency contract. Query/R/BuildStats read only the frozen arena
// (atomic load, no lock). The mutable half — base, tail and the
// applied-edge counter — sits behind mu; InsertEdges and
// SnapshotGraph take the write side, Staleness/Applied/Capture the read
// side.
// Install performs no locking at all: callers run it under the linker's
// write lock (via Linker.UpdateReachability) so the arena swap and the
// interest-cache flush are atomic with respect to scorers, which read the
// frozen arena inside the linker's read-locked sections and therefore
// never observe a torn index.
type Streaming struct {
	opts TwoHopOptions
	n    graph.NodeID // node count, fixed at construction

	// frozen is the immutable 2-hop arena serving queries; frozenAt is the
	// applied-edge count it was built from; swaps counts installs.
	frozen   atomic.Pointer[TwoHop]
	frozenAt atomic.Int64
	swaps    atomic.Int64

	// mu guards the live graph. It is a leaf below the rebuild manager's
	// mutex (ingest-rebuild): nothing is acquired while it is held.
	mu      sync.RWMutex                 // microlint:lock-order reach-stream
	base    *graph.Graph                 // microlint:guarded-by mu — every edge up to the last SnapshotGraph
	tail    map[[2]graph.NodeID]struct{} // microlint:guarded-by mu — edges inserted since, none in base
	applied int64                        // microlint:guarded-by mu
}

func newStreaming(g *graph.Graph, opts TwoHopOptions) *Streaming {
	if opts.MaxHops <= 0 {
		opts.MaxHops = DefaultMaxHops
	}
	return &Streaming{
		opts: opts,
		n:    graph.NodeID(g.NumNodes()),
		base: g,
		tail: make(map[[2]graph.NodeID]struct{}),
	}
}

// NewStreaming builds the initial frozen cover over g. opts selects the
// hop bound and the rebuild parallelism; the same options are reused by
// every subsequent Rebuild so successive arenas are built identically
// (and therefore bit-for-bit deterministically for a fixed batch size).
func NewStreaming(g *graph.Graph, opts TwoHopOptions) *Streaming {
	st := newStreaming(g, opts)
	st.frozen.Store(BuildTwoHop(g, st.opts))
	return st
}

// NewStreamingFromFrozen restores a Streaming substrate from persisted
// state: g is the graph the arena was built from (a loaded segment, not
// a fresh build) and th the deserialized frozen arena. Nothing is
// constructed: a warm restart pays segment load, InsertEdges of the
// snapshot's pending edges (see Capture), and WAL replay.
func NewStreamingFromFrozen(g *graph.Graph, th *TwoHop, opts TwoHopOptions) *Streaming {
	st := newStreaming(g, opts)
	st.frozen.Store(th)
	return st
}

// Frozen returns the currently serving 2-hop arena.
func (st *Streaming) Frozen() *TwoHop { return st.frozen.Load() }

// MaxHops returns the hop bound H the substrate builds arenas with.
func (st *Streaming) MaxHops() int { return st.opts.MaxHops }

// HasNode reports whether u names a node of the live graph; edges are
// accepted only between such nodes.
func (st *Streaming) HasNode(u graph.NodeID) bool { return u >= 0 && u < st.n }

// insertLocked adds u → v to the tail unless it is a self-loop, names a
// node outside the graph, or is already in base or tail.
func (st *Streaming) insertLocked(u, v graph.NodeID) bool {
	if u == v || !st.HasNode(u) || !st.HasNode(v) || st.base.HasEdge(u, v) {
		return false
	}
	key := [2]graph.NodeID{u, v}
	if _, dup := st.tail[key]; dup {
		return false
	}
	st.tail[key] = struct{}{}
	st.applied++
	return true
}

// InsertEdges adds a batch of follow edges to the live graph under one
// lock acquisition — the payoff of the ingest pipeline's batch
// coalescing — and returns the number of edges that were new.
// Self-loops and endpoints outside the graph are dropped here,
// synchronously, so they never reach a rebuild. The frozen arena is
// untouched: staleness grows by one per new edge until the next Install.
func (st *Streaming) InsertEdges(pairs [][2]graph.NodeID) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, p := range pairs {
		if st.insertLocked(p[0], p[1]) {
			n++
		}
	}
	return n
}

// SnapshotGraph returns the live graph as an immutable Graph with the
// applied-edge count it reflects. The pair is what a rebuild needs: build
// the arena from the graph, install it stamped with the count. A
// non-empty tail is folded into a new base (graph.Builder sorts and
// dedupes, so the CSR is canonical); an empty one returns base as is.
func (st *Streaming) SnapshotGraph() (*graph.Graph, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.tail) > 0 {
		b := graph.NewBuilder(int(st.n))
		for u := graph.NodeID(0); u < st.n; u++ {
			for _, v := range st.base.Out(u) {
				b.AddEdge(u, v)
			}
		}
		for e := range st.tail { // any order: Build sorts
			b.AddEdge(e[0], e[1])
		}
		st.base = b.Build()
		clear(st.tail)
	}
	return st.base, st.applied
}

// Rebuild constructs a fresh 2-hop arena from the current live graph,
// off any lock: the snapshot holds mu only to fold the tail, and the
// (expensive) parallel build runs on the immutable result.
// The result is not installed — callers publish it via Install under the
// linker's write lock so the swap excludes concurrent scorers.
func (st *Streaming) Rebuild() (*TwoHop, int64) {
	g, at := st.SnapshotGraph()
	return BuildTwoHop(g, st.opts), at
}

// Capture reads the serving state as it stands, for persistence: the
// installed arena, the graph that arena was built from, and the pending
// edges — every live edge that graph lacks, sorted by (u, v). Nothing is
// built or folded. Restoring NewStreamingFromFrozen(g, th) followed by
// InsertEdges(pending) reproduces the live edge set and Staleness.
//
// When a rebuild has folded the tail into a new base it has not yet
// installed, base differs from the arena's graph and the pending edges
// are base \ g (a per-node merge walk over the two sorted CSRs) plus the
// tail.
func (st *Streaming) Capture() (th *TwoHop, g *graph.Graph, pending [][2]graph.NodeID) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	th = st.frozen.Load()
	g = th.g
	pending = make([][2]graph.NodeID, 0, len(st.tail))
	if st.base != g {
		for u := graph.NodeID(0); u < st.n; u++ {
			old := g.Out(u)
			for _, v := range st.base.Out(u) {
				for len(old) > 0 && old[0] < v {
					old = old[1:]
				}
				if len(old) > 0 && old[0] == v {
					continue
				}
				pending = append(pending, [2]graph.NodeID{u, v})
			}
		}
	}
	for e := range st.tail {
		pending = append(pending, e)
	}
	slices.SortFunc(pending, func(a, b [2]graph.NodeID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return th, g, pending
}

// Install publishes a rebuilt arena as the serving index. It performs
// atomic stores only — no locks — because callers are expected to run it
// inside Linker.UpdateReachability, whose write lock already excludes
// every scorer and whose cache flush makes the swap observable
// atomically. Once installed the arena is frozen: publishcheck flags
// any later write through the same pointer at the call site.
//
// microlint:published-by frozen
func (st *Streaming) Install(th *TwoHop, atEdges int64) {
	st.frozen.Store(th)
	st.frozenAt.Store(atEdges)
	st.swaps.Add(1)
}

// Staleness returns the number of follow edges applied to the live
// graph but not yet reflected in the frozen arena — the pipeline's
// microlink_ingest_staleness_events gauge. Zero means the serving index
// is exactly the live graph.
func (st *Streaming) Staleness() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.applied - st.frozenAt.Load()
}

// Applied returns the total number of edges inserted since construction.
func (st *Streaming) Applied() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.applied
}

// Swaps returns how many arenas have been installed since construction.
func (st *Streaming) Swaps() int64 { return st.swaps.Load() }

// Query implements Index against the frozen arena (lock-free).
func (st *Streaming) Query(u, v graph.NodeID) (Result, bool) {
	return st.frozen.Load().Query(u, v)
}

// R implements Index against the frozen arena (lock-free).
func (st *Streaming) R(u, v graph.NodeID) float64 {
	return st.frozen.Load().R(u, v)
}

// RFrom implements Index against the frozen arena (lock-free): one
// arena load for every target.
func (st *Streaming) RFrom(u graph.NodeID, vs []graph.NodeID, out []float64) {
	st.frozen.Load().RFrom(u, vs, out)
}

// SizeBytes implements Index: what the substrate holds — the frozen
// arena and the base CSR, both measured from their backing slices, plus
// an estimate of the tail's map (16 B per edge). With no
// closure behind it the harness's traced reach.index_mb reads roughly
// arena + graph (it was ≈ 154 MB with one), and reach.closure_build_ms —
// NewStreaming's time less the 2-hop build's — reads ≈ 0.
func (st *Streaming) SizeBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.frozen.Load().SizeBytes() + st.base.SizeBytes() + int64(len(st.tail))*16
}

// BuildStats implements Index, reporting the frozen arena's stats.
func (st *Streaming) BuildStats() BuildStats { return st.frozen.Load().BuildStats() }
