package reach

import (
	"math/rand"
	"slices"
	"testing"

	"microlink/internal/graph"
)

// edgeOracle is the dumbest possible model of Streaming's live graph: a
// set of edges.
type edgeOracle struct {
	n     int
	edges map[[2]graph.NodeID]bool
}

func newEdgeOracle(g *graph.Graph) *edgeOracle {
	o := &edgeOracle{n: g.NumNodes(), edges: make(map[[2]graph.NodeID]bool)}
	for u := 0; u < o.n; u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			o.edges[[2]graph.NodeID{graph.NodeID(u), v}] = true
		}
	}
	return o
}

// insert reports whether u → v is new, valid, and not a self-loop.
func (o *edgeOracle) insert(u, v graph.NodeID) bool {
	k := [2]graph.NodeID{u, v}
	if u == v || u < 0 || int(u) >= o.n || v < 0 || int(v) >= o.n || o.edges[k] {
		return false
	}
	o.edges[k] = true
	return true
}

// check compares every adjacency list of g against the oracle.
func (o *edgeOracle) check(t *testing.T, g *graph.Graph) {
	t.Helper()
	if g.NumEdges() != len(o.edges) {
		t.Fatalf("snapshot has %d edges, oracle %d", g.NumEdges(), len(o.edges))
	}
	out := make([][]graph.NodeID, o.n)
	in := make([][]graph.NodeID, o.n)
	for e := range o.edges {
		out[e[0]] = append(out[e[0]], e[1])
		in[e[1]] = append(in[e[1]], e[0])
	}
	for u := 0; u < o.n; u++ {
		slices.Sort(out[u])
		slices.Sort(in[u])
		if !slices.Equal(g.Out(graph.NodeID(u)), out[u]) {
			t.Fatalf("Out(%d) = %v, oracle %v", u, g.Out(graph.NodeID(u)), out[u])
		}
		if !slices.Equal(g.In(graph.NodeID(u)), in[u]) {
			t.Fatalf("In(%d) = %v, oracle %v", u, g.In(graph.NodeID(u)), in[u])
		}
	}
}

// TestStreamingMatchesEdgeOracle drives seeded random interleavings of
// every mutating entry point against the oracle. Inserts draw from a
// small node range (with a margin either side) so duplicates against the
// base, against the tail and within one batch, self-loops and
// out-of-range endpoints all occur constantly.
func TestStreamingMatchesEdgeOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		const n = 24
		g := randomGraph(r, n, 60)
		st := NewStreaming(g, TwoHopOptions{MaxHops: 3, Workers: 1})
		o := newEdgeOracle(g)
		node := func() graph.NodeID { return graph.NodeID(r.Intn(n+4) - 2) }

		var applied, frozenAt int64
		lastSnap, lastSnapAt := g, int64(0)
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4:
				u, v := node(), node()
				want := o.insert(u, v)
				if got := st.InsertEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: InsertEdge(%d,%d) = %v, oracle %v", seed, step, u, v, got, want)
				}
				if want {
					applied++
				}
			case op < 7:
				pairs := make([][2]graph.NodeID, r.Intn(8))
				want := 0
				for i := range pairs {
					pairs[i] = [2]graph.NodeID{node(), node()}
					if i > 0 && r.Intn(3) == 0 {
						pairs[i] = pairs[r.Intn(i)] // duplicate within the batch
					}
					if o.insert(pairs[i][0], pairs[i][1]) {
						want++
					}
				}
				if got := st.InsertEdges(pairs); got != want {
					t.Fatalf("seed %d step %d: InsertEdges(%v) = %d, oracle %d", seed, step, pairs, got, want)
				}
				applied += int64(want)
			case op < 9:
				snap, at := st.SnapshotGraph()
				if at != applied {
					t.Fatalf("seed %d step %d: snapshot stamped %d, want %d", seed, step, at, applied)
				}
				if (snap == lastSnap) != (at == lastSnapAt) {
					t.Fatalf("seed %d step %d: snapshot pointer reuse = %v with %d new edges",
						seed, step, snap == lastSnap, at-lastSnapAt)
				}
				o.check(t, snap)
				lastSnap, lastSnapAt = snap, at
			default:
				th, at := st.Rebuild()
				st.Install(th, at)
				frozenAt = at
				lastSnap, lastSnapAt = th.g, at
				o.check(t, th.g)
			}
			if got := st.Applied(); got != applied {
				t.Fatalf("seed %d step %d: Applied() = %d, want %d", seed, step, got, applied)
			}
			if got := st.Staleness(); got != applied-frozenAt {
				t.Fatalf("seed %d step %d: Staleness() = %d, want %d", seed, step, got, applied-frozenAt)
			}
		}
	}
}

// TestStreamingRejectsBadEndpoints: a self-loop or an endpoint outside
// [0, n) is refused at insert — synchronously, uncounted — and so can
// never reach graph.Builder.AddEdge (which panics on one) in a rebuild.
func TestStreamingRejectsBadEndpoints(t *testing.T) {
	g := diamond() // 6 nodes
	st := NewStreaming(g, TwoHopOptions{MaxHops: 3})
	bad := [][2]graph.NodeID{{2, 2}, {-1, 0}, {0, -1}, {6, 0}, {0, 6}, {1 << 30, -(1 << 30)}}
	for _, p := range bad {
		if st.InsertEdge(p[0], p[1]) {
			t.Fatalf("InsertEdge(%d,%d) accepted", p[0], p[1])
		}
	}
	if n := st.InsertEdges(append(bad, [2]graph.NodeID{3, 0})); n != 1 {
		t.Fatalf("InsertEdges counted %d new edges, want 1", n)
	}
	if got := st.Applied(); got != 1 {
		t.Fatalf("Applied() = %d, want 1", got)
	}
	th, at := st.Rebuild() // must not panic
	st.Install(th, at)
	if th.g.NumEdges() != g.NumEdges()+1 || !th.g.HasEdge(3, 0) {
		t.Fatalf("rebuilt graph has %d edges, want %d incl. 3→0", th.g.NumEdges(), g.NumEdges()+1)
	}
}

// TestStreamingSizeBytesCountsWhatIsHeld: arena + base CSR at rest, and
// strictly more with a tail pending.
func TestStreamingSizeBytesCountsWhatIsHeld(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 50, 200)
	st := NewStreaming(g, TwoHopOptions{MaxHops: 3})
	rest := st.SizeBytes()
	if want := st.Frozen().SizeBytes() + g.SizeBytes(); rest != want {
		t.Fatalf("SizeBytes at rest = %d, want arena + graph = %d", rest, want)
	}
	for v := graph.NodeID(1); v < 50; v++ {
		st.InsertEdge(0, v)
	}
	if st.Applied() == 0 || st.SizeBytes() <= rest {
		t.Fatalf("SizeBytes with %d tail edges = %d, at rest %d", st.Applied(), st.SizeBytes(), rest)
	}
}
